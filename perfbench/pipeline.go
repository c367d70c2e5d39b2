package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"profitlb/internal/cluster"
	"profitlb/internal/core"
	"profitlb/internal/datacenter"
	"profitlb/internal/dispatch"
	"profitlb/internal/sim"
)

// replicas is the fleet size of the slot-boundary pipeline.
const replicas = 4

// tracedSource wraps the pipeline's dispatch.PlanSource. It keeps the
// input of the latest call for the plan oracle and, when timing, how
// long the call took.
type tracedSource struct {
	inner  dispatch.PlanSource
	timing bool
	last   *core.Input
	dur    time.Duration
}

func (s *tracedSource) PlannerInput(abs int) (*core.Input, error) {
	var start time.Time
	if s.timing {
		start = time.Now()
	}
	in, err := s.inner.PlannerInput(abs)
	if s.timing {
		s.dur = time.Since(start)
	}
	s.last = in
	return in, err
}

// tracedPlanner wraps the pipeline's core.Planner the same way. It
// forwards the fallback state the driver reads to mark degraded tables.
type tracedPlanner struct {
	inner  core.Planner
	timing bool
	last   *core.Plan
	dur    time.Duration
}

func (p *tracedPlanner) Name() string { return p.inner.Name() }

func (p *tracedPlanner) Plan(in *core.Input) (*core.Plan, error) {
	var start time.Time
	if p.timing {
		start = time.Now()
	}
	plan, err := p.inner.Plan(in)
	if p.timing {
		p.dur = time.Since(start)
	}
	p.last = plan
	return plan, err
}

func (p *tracedPlanner) FallbackState() (tier int, tierName string, degraded bool) {
	if fr, ok := p.inner.(interface {
		FallbackState() (int, string, bool)
	}); ok {
		return fr.FallbackState()
	}
	return 0, "", false
}

// pipeline is the in-process slot boundary: sim.InputSource →
// dispatch.Driver (plan, verify, compile) → cluster.Publisher →
// cluster.Replica ×4 → dispatch.Gateway, driven the way `profitlb serve
// -replicas 4` drives it at each slot.
type pipeline struct {
	sys  *datacenter.System
	dcfg dispatch.Config
	src  *tracedSource
	plan *tracedPlanner
	drv  *dispatch.Driver
	pub  *cluster.Publisher
	reps []*cluster.Replica
	rng  *rand.Rand
	// n counts boundaries; virtual time advances one slot per boundary.
	n int
}

// newPipeline wires the pipeline over a source and a planner.
func newPipeline(sys *datacenter.System, src dispatch.PlanSource, planner core.Planner, seed int64) *pipeline {
	dcfg := dispatch.Config{Seed: uint64(seed)}.WithDefaults()
	p := &pipeline{
		sys:  sys,
		dcfg: dcfg,
		src:  &tracedSource{inner: src},
		plan: &tracedPlanner{inner: planner},
		rng:  rand.New(rand.NewSource(seed)),
	}
	p.drv = &dispatch.Driver{Gateway: dispatch.NewGateway(sys, dcfg, nil), Planner: p.plan, Source: p.src}
	ccfg := cluster.Config{Replicas: replicas}.WithDefaults()
	p.pub = cluster.NewPublisher(ccfg, p.drv, nil)
	for i := 0; i < replicas; i++ {
		p.reps = append(p.reps, cluster.NewReplica(cluster.ReplicaID(i), sys, dcfg, ccfg, nil))
	}
	return p
}

// setSource swaps in a fresh input source and planner (the mpc-defer
// workload restarts its planner every round); the fleet and its epoch
// sequence carry on.
func (p *pipeline) setSource(src dispatch.PlanSource, planner core.Planner) {
	p.src.inner = src
	p.plan.inner = planner
}

// boundary is one slot boundary's outcome.
type boundary struct {
	// cpu is the process's CPU time over the boundary, own the driving
	// thread's.
	cpu, own time.Duration
	in       *core.Input
	plan     *core.Plan
	pub      *cluster.Publication
	admitted int
	// Traced runs only.
	inputDur, planDur, publishDur time.Duration
	applyDur, admitDur            time.Duration // means per replica
}

// step runs slot abs through the whole boundary: heartbeats and the
// health round, plan and publish, every replica's apply and tick, and a
// first request to every replica under the new epoch.
func (p *pipeline) step(abs int, traced bool) (*boundary, error) {
	p.src.timing, p.plan.timing = traced, traced
	now := float64(p.n) * p.sys.Slot()
	p.n++
	b := &boundary{}
	cpu0, own0 := processCPU(), threadCPU()
	for _, r := range p.reps {
		p.pub.Beat(r.ID, abs)
	}
	p.pub.SweepHealth(abs)
	var pubStart time.Time
	if traced {
		pubStart = time.Now()
	}
	pub, err := p.pub.PublishSlot(abs)
	if err != nil {
		return nil, err
	}
	if traced {
		b.publishDur = time.Since(pubStart)
	}
	for _, r := range p.reps {
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		if _, err := r.Apply(pub, now); err != nil {
			return nil, err
		}
		r.Tick(abs, now)
		if traced {
			b.applyDur += time.Since(t0)
		}
	}
	for _, r := range p.reps {
		gw := r.Gateway()
		k, s := p.probeStream(gw.Table())
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		d := gw.Handle(k, s, now)
		if traced {
			b.admitDur += time.Since(t0)
		}
		if d.Outcome == dispatch.Admitted {
			b.admitted++
		}
	}
	b.cpu, b.own = processCPU()-cpu0, threadCPU()-own0
	b.in, b.plan, b.pub = p.src.last, p.plan.last, pub
	if p.drv.LastErr != nil {
		// A shed table commits no plan.
		b.plan = nil
	}
	if traced {
		b.inputDur, b.planDur = p.src.dur, p.plan.dur
		b.publishDur -= b.inputDur + b.planDur
		b.applyDur /= replicas
		b.admitDur /= replicas
	}
	return b, nil
}

// probeStream picks the stream of a replica's first request: a seeded
// draw over all (class, front-end) streams, moved on to the next stream
// the table plans traffic for.
func (p *pipeline) probeStream(t *dispatch.Table) (k, s int) {
	K, S := p.sys.K(), p.sys.S()
	i := p.rng.Intn(K * S)
	if t == nil {
		return i / S, i % S
	}
	for j := 0; j < K*S; j++ {
		c := (i + j) % (K * S)
		if planned, _ := t.Planned(c/S, c%S); planned > 0 {
			return c / S, c % S
		}
	}
	return i / S, i % S
}

// checkBoundary runs the fleet checks after a boundary and the plan
// oracle on its committed plan, and returns whether the boundary
// succeeded. A degraded or shed table, a replica not at the new epoch or
// a refused first request fails the boundary. On clean inputs the
// pipeline must serve the primary planner's plan from every replica, so
// on every planning workload a failed boundary is also a failed output
// check. Every committed plan, a fallback tier's too, goes through the
// plan oracle and the lane checks; only a shed table, which commits no
// plan, skips them. Mismatches between the plan, the published table and
// the replicas' tables are failed output checks as well.
func (p *pipeline) checkBoundary(b *boundary, budget [][]float64, c *checks) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		c.failf("slot %d: boundary failed: "+format, append([]any{b.pub.Slot}, args...)...)
	}
	switch {
	case p.drv.LastErr != nil:
		fail("shed table: %v", p.drv.LastErr)
	case b.pub.Table.Degraded:
		fail("degraded table from fallback tier %q", b.pub.Table.Tier)
	}
	for _, r := range p.reps {
		if r.Epoch() != b.pub.Epoch {
			fail("replica %s at epoch %d, publisher at %d", r.ID, r.Epoch(), b.pub.Epoch)
		}
	}
	if b.admitted != replicas {
		fail("%d of %d first requests admitted", b.admitted, replicas)
	}
	if b.plan == nil || b.in == nil {
		return ok
	}
	checkPlan(b.in, b.plan, budget, c)
	// The replicas' subdivided lane rates sum to the fleet table's.
	lanes := b.pub.Table.Lanes
	for _, r := range p.reps {
		if got := len(r.Gateway().Table().Lanes); got != len(lanes) {
			c.failf("slot %d: replica %s has %d lanes, fleet table %d", b.pub.Slot, r.ID, got, len(lanes))
			return ok
		}
	}
	for i, ln := range lanes {
		var sum float64
		for _, r := range p.reps {
			sum += r.Gateway().Table().Lanes[i].Rate
		}
		if math.Abs(sum-ln.Rate) > 1e-9*math.Max(1, ln.Rate) {
			c.failf("slot %d lane %d: replica rates sum to %g, fleet table %g", b.pub.Slot, i, sum, ln.Rate)
		}
	}
	// The fleet table carries exactly the plan's positive rates.
	var tableSum, planSum float64
	for _, ln := range lanes {
		tableSum += ln.Rate
		if v := b.plan.Rate[ln.K][ln.Q][ln.S][ln.L]; v != ln.Rate {
			c.failf("slot %d lane k=%d q=%d s=%d l=%d: table rate %g, plan rate %g", b.pub.Slot, ln.K, ln.Q, ln.S, ln.L, ln.Rate, v)
		}
	}
	for k := range b.plan.Rate {
		planSum += b.plan.Served(k)
	}
	if math.Abs(tableSum-planSum) > 1e-6*math.Max(1, planSum) {
		c.failf("slot %d: table carries %g of the plan's %g", b.pub.Slot, tableSum, planSum)
	}
	return ok
}

// newSource builds the sim.InputSource for a configuration.
func newSource(cfg sim.Config) (*sim.InputSource, error) {
	src, err := sim.NewInputSource(cfg)
	if err != nil {
		return nil, fmt.Errorf("input source: %w", err)
	}
	return src, nil
}

// setupTimes takes samples set-up times, each the mean of batch builds,
// and keeps the last build's value. A single in-process set-up takes well
// under a millisecond, so one build per sample would mostly measure the
// timer and the caches.
func setupTimes[T any](samples, batch int, build func() (T, error)) (T, []time.Duration, error) {
	var v T
	var ds []time.Duration
	for i := 0; i < samples; i++ {
		runtime.GC()
		start := time.Now()
		for j := 0; j < batch; j++ {
			var err error
			if v, err = build(); err != nil {
				return v, nil, err
			}
		}
		ds = append(ds, time.Since(start)/time.Duration(batch))
	}
	return v, ds, nil
}
