package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"profitlb/internal/baseline"
	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/mpc"
	"profitlb/internal/resilient"
)

// planRun is one built instance of a planning workload: the pipeline
// plus the workload's own round structure and checks.
type planRun struct {
	pipe *pipeline
	// roundSlots is the length of one round; runs attempt whole rounds.
	roundSlots int
	// chain is the resilient ladder the pipeline plans through; opt is
	// its primary tier when that is the optimized planner (nil for mpc).
	chain *resilient.Chain
	opt   *core.Optimized
	// beginRound, when set, runs before each round (mpc-defer restarts
	// its planner there).
	beginRound func(round int) error
	// afterSlot runs the workload's own checks on each boundary; ok is
	// whether the boundary succeeded (see checkBoundary).
	afterSlot func(b *boundary, ok bool, c *checks)
	// endRound closes a round's checks and returns its failed
	// operations; attempted returns a round's operations.
	endRound  func(round int, c *checks) int64
	attempted func() int64
	// budget returns the backlog budget committed plans are checked
	// against (nil for slot-myopic planners).
	budget func() [][]float64
	// layers adds the workload's own per-layer values after a traced
	// phase (mpc-defer's ledger).
	layers func(vals map[string]float64, rounds int)
}

// phase is what one measured phase of a planning workload produced.
type phase struct {
	rounds, boundaries int
	attempted, failed  int64
	// busy is the process's CPU time over every boundary; lat holds each
	// boundary's CPU time on the driving thread and rss the process's
	// resident set after each boundary.
	busy    time.Duration
	lat     []time.Duration
	rss     []float64
	windows []window // one per round
	profit  float64
	layers  map[string]float64
}

// runPhase runs whole rounds on r until the wall clock passes seconds
// (or exactly rounds rounds when rounds > 0). Traced phases time each
// layer of every boundary and sum the planner's search statistics.
//
// The pipeline runs every boundary inline on the calling goroutine, which
// stays locked to its OS thread, so the thread's CPU clock times the
// boundary alone; the runtime's garbage collection on other threads is
// left to the process clock.
func runPhase(r *planRun, seconds float64, rounds int, traced bool, c *checks) (*phase, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ph := &phase{layers: map[string]float64{}}
	var stats core.SearchStats
	sums := map[string]float64{}
	start := time.Now()
	for round := 0; ; round++ {
		if rounds > 0 && round == rounds {
			break
		}
		if rounds == 0 && round > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		if r.beginRound != nil {
			if err := r.beginRound(round); err != nil {
				return nil, err
			}
		}
		if traced && r.opt != nil {
			r.opt.Stats = &stats
		}
		win := window{ops: r.roundSlots}
		for i := 0; i < r.roundSlots; i++ {
			abs := round*r.roundSlots + i
			b, err := r.pipe.step(abs, traced)
			if err != nil {
				return nil, fmt.Errorf("slot %d: %w", abs, err)
			}
			ph.boundaries++
			ph.busy += b.cpu
			win.busy += b.cpu
			ph.lat = append(ph.lat, b.own)
			var budget [][]float64
			if r.budget != nil {
				budget = r.budget()
			}
			ok := r.pipe.checkBoundary(b, budget, c)
			if b.plan != nil && b.in != nil {
				ph.profit += profit(b.in, b.plan)
			}
			if r.afterSlot != nil {
				r.afterSlot(b, ok, c)
			}
			if traced {
				addLayers(sums, r, b, &stats)
			} else {
				mb, err := rssMB("self")
				if err != nil {
					return nil, err
				}
				ph.rss = append(ph.rss, mb)
			}
		}
		ph.rounds++
		ph.windows = append(ph.windows, win)
		ph.attempted += r.attempted()
		ph.failed += r.endRound(round, c)
	}
	if traced {
		n := float64(ph.boundaries)
		for name, v := range sums {
			ph.layers[name] = v / n
		}
		solves, hits := sums["core.lp_solves"], sums["cache_hits"]
		delete(ph.layers, "cache_hits")
		if solves+hits > 0 {
			ph.layers["core.cache_hit_ratio"] = hits / (solves + hits)
		}
		useful := sums["lp.warm_pivots"] + sums["lp.cold_pivots"]
		if all := useful + sums["lp.abandoned_pivots"]; all > 0 {
			ph.layers["lp.useful_pivot_ratio"] = useful / all
		}
		ph.layers["resilient.fallback_slots"] = sums["resilient.fallback_slots"]
		if r.layers != nil {
			r.layers(ph.layers, ph.rounds)
		}
	}
	return ph, nil
}

// addLayers accumulates one traced boundary's per-layer values. Verify
// and Compile are timed by calling them again on the boundary's own
// input and plan, outside the boundary's timing.
func addLayers(sums map[string]float64, r *planRun, b *boundary, stats *core.SearchStats) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	sums["sim.input_ms"] += ms(b.inputDur)
	sums["core.plan_ms"] += ms(b.planDur)
	sums["cluster.publish_ms"] += ms(b.publishDur)
	sums["cluster.apply_ms"] += ms(b.applyDur)
	sums["dispatch.first_admit_us"] += float64(b.admitDur.Nanoseconds()) / 1e3
	if b.in != nil && b.plan != nil {
		t0 := time.Now()
		_ = core.Verify(b.in, b.plan, 1e-6)
		sums["core.verify_ms"] += ms(time.Since(t0))
		t0 = time.Now()
		_, _ = dispatch.Compile(b.in, b.plan, r.pipe.dcfg)
		sums["dispatch.compile_ms"] += ms(time.Since(t0))
	}
	if r.opt != nil {
		sums["core.lp_solves"] += float64(stats.Solves)
		sums["cache_hits"] += float64(stats.CacheHits)
		sums["lp.warm_pivots"] += float64(stats.WarmPivots)
		sums["lp.cold_pivots"] += float64(stats.ColdPivots)
		sums["lp.abandoned_pivots"] += float64(stats.AbandonedPivots)
		sums["lp.warm_fallbacks"] += float64(stats.WarmFallbacks)
		sums["lp.sparse_solves"] += float64(stats.SparseSolves)
		*stats = core.SearchStats{}
	}
	if _, _, degraded := r.chain.FallbackState(); degraded {
		sums["resilient.fallback_slots"]++
	}
}

// A planning workload times setupSamples set-ups of its inputs and
// fleet, each the mean of setupBatch builds; setup_s is their median.
const (
	setupSamples = 51
	setupBatch   = 10
)

// runPlanning runs a planning workload: the timed set-ups, then the
// untraced phase for the end-to-end metrics, or — with --trace 1 — an
// untraced phase on half the time and a traced phase over the same
// number of rounds on a fresh set-up, for the per-layer metrics and the
// tracing overhead.
func runPlanning(o options, build func() (*planRun, error)) (*result, error) {
	r, setup, err := setupTimes(setupSamples, setupBatch, build)
	if err != nil {
		return nil, err
	}
	var c checks
	res := &result{}
	if !o.trace {
		ph, err := runPhase(r, o.seconds, 0, false, &c)
		if err != nil {
			return nil, err
		}
		res.Attempted, res.Failed = ph.attempted, ph.failed
		var perOp []float64
		for _, w := range ph.windows {
			perOp = append(perOp, float64(w.busy.Nanoseconds())/1e3/float64(w.ops))
		}
		endToEnd(res, setup, ph.lat, median(perOp), ph.profit/float64(ph.boundaries), ph.rss)
		res.Correct = c.ok()
		return res, nil
	}
	plain, err := runPhase(r, o.seconds/2, 0, false, &c)
	if err != nil {
		return nil, err
	}
	fresh, err := build()
	if err != nil {
		return nil, err
	}
	traced, err := runPhase(fresh, 0, plain.rounds, true, &c)
	if err != nil {
		return nil, err
	}
	traced.layers["trace.overhead_pct"] = overheadPct(
		float64(plain.boundaries)/plain.busy.Seconds(),
		float64(traced.boundaries)/traced.busy.Seconds())
	res.Attempted, res.Failed = plain.attempted+traced.attempted, plain.failed+traced.failed
	if err := perLayer(res, traced.layers); err != nil {
		return nil, err
	}
	res.Correct = c.ok()
	return res, nil
}

// myopicRun wraps the paper's optimized planner, with its defaults, in
// the resilient ladder `profitlb serve` plans through, and builds the
// pipeline over it. One planner runs through every round. The operation
// is a slot boundary, failed when checkBoundary fails it.
func myopicRun(w *inputs, seed int64, roundSlots int) (*planRun, error) {
	r := &planRun{
		pipe:       newPipeline(w.cfg.Sys, nil, nil, seed),
		roundSlots: roundSlots,
		attempted:  func() int64 { return int64(roundSlots) },
	}
	src, err := newSource(w.cfg)
	if err != nil {
		return nil, err
	}
	r.opt = core.NewOptimized()
	r.chain = resilient.Wrap(r.opt)
	r.pipe.setSource(src, r.chain)
	var failed int64
	r.afterSlot = func(b *boundary, ok bool, c *checks) {
		if !ok {
			failed++
		}
	}
	r.endRound = func(int, *checks) int64 {
		f := failed
		failed = 0
		return f
	}
	return r, nil
}

func runPaperDay(o options) (*result, error) {
	return runPlanning(o, func() (*planRun, error) {
		w := paperDayInputs(o.seed)
		r, err := myopicRun(w, o.seed, 24*paperDays)
		if err != nil {
			return nil, err
		}
		// Fig. 6: over each day, profit-aware dispatch earns at least what
		// the Balanced baseline earns on the same inputs.
		bal := baseline.NewBalanced()
		var opt, base float64
		fleetCheck := r.afterSlot
		r.afterSlot = func(b *boundary, ok bool, c *checks) {
			fleetCheck(b, ok, c)
			if b.plan == nil || b.in == nil {
				return
			}
			bp, err := bal.Plan(b.in)
			if err != nil {
				c.failf("slot %d: balanced baseline: %v", b.in.Slot, err)
				return
			}
			opt += profit(b.in, b.plan)
			base += profit(b.in, bp)
			if b.in.Slot%24 == 23 {
				if opt < base-1e-6*math.Abs(base) {
					c.failf("day ending at slot %d: profit-aware total %.6g below the Balanced baseline's %.6g", b.in.Slot, opt, base)
				}
				opt, base = 0, 0
			}
		}
		return r, nil
	})
}

// mpcDays is the length of one mpc-defer round in days; every round
// restarts the planner, so each round repeats the same decisions.
const mpcDays = 3

func runMPCDefer(o options) (*result, error) {
	return runPlanning(o, func() (*planRun, error) {
		w := mpcDeferInputs()
		roundSlots := 24 * mpcDays
		r := &planRun{roundSlots: roundSlots}
		var planner *mpc.Planner
		// beginRound supplies each round's source and planner.
		r.pipe = newPipeline(w.cfg.Sys, nil, nil, o.seed)
		lg := newLedger(w.maxDefer, w.cfg.Sys.Slot())
		r.beginRound = func(round int) error {
			start := round * roundSlots
			cfg := w.cfg
			cfg.StartSlot, cfg.Slots = start, roundSlots
			src, err := newSource(cfg)
			if err != nil {
				return err
			}
			planner = mpc.New(mpc.Config{Horizon: w.horizon, MaxDefer: w.maxDefer, EndSlot: start + roundSlots})
			r.chain = resilient.Wrap(planner)
			r.pipe.setSource(src, r.chain)
			lg.beginRound()
			return nil
		}
		r.budget = func() [][]float64 { return planner.BacklogBudget() }
		r.afterSlot = func(b *boundary, ok bool, c *checks) {
			if b.in == nil {
				return // checkBoundary has failed the run
			}
			plan := b.plan
			if plan == nil {
				plan = core.NewPlan(w.cfg.Sys) // a shed table serves nothing
			}
			lg.commit(b.in, plan, c)
			lg.plannerBacklog += total2(planner.BacklogBudget()) * w.cfg.Sys.Slot()
		}
		r.endRound = func(round int, c *checks) int64 { return lg.endRound(c) }
		r.attempted = func() int64 { return lg.roundOffered }
		r.layers = func(vals map[string]float64, rounds int) {
			days := float64(rounds * mpcDays)
			vals["mpc.deferred_req"] = lg.deferredTotal / days
			vals["mpc.drained_req"] = lg.drainedTotal / days
			vals["mpc.backlog_req"] = lg.plannerBacklog / float64(rounds*roundSlots)
		}
		return r, nil
	})
}

func total2(v [][]float64) float64 {
	var s float64
	for _, row := range v {
		for _, x := range row {
			s += x
		}
	}
	return s
}
