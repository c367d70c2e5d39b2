package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"profitlb/internal/config"
	"profitlb/internal/core"
	"profitlb/internal/dispatch"
	"profitlb/internal/exp"
	"profitlb/internal/resilient"
	"profitlb/internal/sim"
	"profitlb/internal/workload"
)

const (
	// httpClients is the closed loop's connection count: one keep-alive
	// connection per client goroutine, no more than the machine's 2 CPUs.
	httpClients = 2
	// httpScale multiplies the Section VI capacities and arrivals so that
	// one slot's token budget covers every request a run sends.
	httpScale = 10000
	// httpSlot is the planned slot: 04:00, where every stream is served
	// in full.
	httpSlot = 4
	// httpWarmup is the untimed phase before measuring.
	httpWarmup = time.Second
	// httpNoise is the traces' relative per-slot noise. It is a quarter
	// of the generator's default so the served plan's profit, which
	// follows the arrivals, stays within a few tenths of a percent across
	// seeds.
	httpNoise = 0.02
	// httpSetups is how many times a run starts the server; setup_s is
	// the median.
	httpSetups = 21
)

// httpScenario is the Section VI topology with capacities and arrivals
// scaled by httpScale, seeded World-Cup-like traces with httpNoise
// relative noise, and a slot of one wall-clock hour, so the whole run is
// served under the first plan epoch.
func httpScenario(seed int64) *config.Scenario {
	ts := exp.NewTraceSetup()
	sys := ts.Sys.Clone()
	for l := range sys.Centers {
		for k := range sys.Centers[l].ServiceRate {
			sys.Centers[l].ServiceRate[k] *= httpScale
		}
	}
	traces := make([]*workload.Trace, sys.S())
	for s := range traces {
		base := workload.WorldCupLike(workload.WorldCupConfig{
			Seed: mix(seed, 7, int64(s)), Base: 650 + 100*float64(s), Slots: 24, Noise: httpNoise,
		})
		traces[s] = workload.ShiftTypes(sys.FrontEnds[s].Name, base, sys.K(), 4).Scale(httpScale)
	}
	return &config.Scenario{
		Name:      "perfbench-http",
		System:    sys,
		Traces:    traces,
		Prices:    ts.Prices,
		Slots:     24,
		StartSlot: httpSlot,
		Resilient: true,
		Dispatch:  &dispatch.Config{SlotSeconds: 3600, Seed: uint64(seed)},
	}
}

// server is a running `profitlb serve` child.
type server struct {
	cmd  *exec.Cmd
	base string
	// done closes when the child's standard output reaches EOF, that is
	// when the child has exited.
	done chan struct{}
}

// startServer launches the fleet server on a free loopback port and
// waits for its first /readyz 200.
func startServer(bin, cfgPath string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-config", cfgPath, "-addr", "127.0.0.1:0", "-replicas", strconv.Itoa(replicas))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	srv := &server{cmd: cmd, done: make(chan struct{})}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		line := lines.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			srv.base = strings.Fields(line[i:])[0]
			break
		}
	}
	// Keep draining the child's output so it never blocks on a write.
	go func() {
		_, _ = io.Copy(io.Discard, out)
		close(srv.done)
	}()
	if srv.base == "" {
		srv.stop()
		return nil, fmt.Errorf("server printed no address")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(srv.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return srv, nil
			}
		}
		if time.Now().After(deadline) {
			srv.stop()
			return nil, fmt.Errorf("server not ready after 30s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop drains the child with SIGINT and waits for it to exit, killing it
// if the drain overruns.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	_ = s.cmd.Wait()
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

func (s *server) getJSON(path string, v any) error {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// planView is what /admin/plan reports of the installed (per-replica)
// routing table.
type planView struct {
	Epoch     uint64          `json:"epoch"`
	Objective float64         `json:"objective"`
	ServersOn []int           `json:"serversOn"`
	Degraded  bool            `json:"degraded"`
	Lanes     []dispatch.Lane `json:"lanes"`
}

// reply is one admitted request's answer.
type reply struct {
	Center string `json:"center"`
	Level  int    `json:"level"`
}

// tally is what the client saw, per stream k·S+s.
type tally struct {
	sent, ok, failed int64
	perCenter        [][]int64 // [stream][center]
	// lat holds each answered request's latency.
	lat []time.Duration
}

func newTally(streams, centers int) *tally {
	t := &tally{perCenter: make([][]int64, streams)}
	for i := range t.perCenter {
		t.perCenter[i] = make([]int64, centers)
	}
	return t
}

func (t *tally) add(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.failed += o.failed
	for i := range t.perCenter {
		for l := range t.perCenter[i] {
			t.perCenter[i][l] += o.perCenter[i][l]
		}
	}
	t.lat = append(t.lat, o.lat...)
}

// httpRouting is the client's view of the installed plan: each stream's
// allowed (center, level) pairs and its per-center rate shares.
type httpRouting struct {
	K, S, L  int
	centerOf map[string]int
	allowed  []map[[2]int]bool // [stream] → (center, level)
	share    [][]float64       // [stream][center]
	reqs     [][]byte          // [stream] prepared GET requests
}

// load runs the closed loop for d: each client goroutine sends its next
// request as soon as the previous answer is read, to a stream drawn
// from its own seeded sequence. Every 200 must name a (center, level)
// the plan routes the stream to; anything else is a failed request.
func (h *httpRouting) load(base string, seed int64, round int, d time.Duration) *tally {
	parts := make([]*tally, httpClients)
	var wg sync.WaitGroup
	stop := time.Now().Add(d)
	for w := 0; w < httpClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &conn{addr: strings.TrimPrefix(base, "http://")}
			defer c.close()
			rng := rand.New(rand.NewSource(mix(seed, 11, int64(round), int64(w))))
			t := newTally(h.K*h.S, h.L)
			for time.Now().Before(stop) {
				st := rng.Intn(h.K * h.S)
				t.sent++
				start := time.Now()
				status, body, err := c.get(h.reqs[st])
				if err != nil {
					t.failed++
					continue
				}
				t.lat = append(t.lat, time.Since(start))
				if status != http.StatusOK {
					t.failed++
					continue
				}
				var rp reply
				l, known := -1, false
				if json.Unmarshal(body, &rp) == nil {
					l, known = h.centerOf[rp.Center]
				}
				if !known || !h.allowed[st][[2]int{l, rp.Level}] {
					t.failed++
					continue
				}
				t.ok++
				t.perCenter[st][l]++
			}
			parts[w] = t
		}(w)
	}
	wg.Wait()
	out := newTally(h.K*h.S, h.L)
	for _, p := range parts {
		out.add(p)
	}
	return out
}

// routingFrom builds the client's view of the plan from /admin/plan and
// checks it: every stream planned in full against the scenario's
// arrivals, and the plan's Eq. 5 profit recomputed from the lane rates
// against the objective the server reports. It returns the fleet-wide
// profit of the slot.
func routingFrom(sc *config.Scenario, pv *planView, c *checks) (*httpRouting, float64) {
	sys := sc.System
	h := &httpRouting{K: sys.K(), S: sys.S(), L: sys.L(), centerOf: map[string]int{}}
	for l, dc := range sys.Centers {
		h.centerOf[dc.Name] = l
	}
	n := h.K * h.S
	h.allowed = make([]map[[2]int]bool, n)
	h.share = make([][]float64, n)
	for st := 0; st < n; st++ {
		h.allowed[st] = map[[2]int]bool{}
		h.share[st] = make([]float64, h.L)
		k, s := st/h.S, st%h.S
		h.reqs = append(h.reqs, request("/dispatch/"+sys.FrontEnds[s].Name+"/"+sys.Classes[k].Name))
	}
	in := &core.Input{Sys: sys, Prices: make([]float64, h.L), Slot: httpSlot}
	for l := range in.Prices {
		in.Prices[l] = sc.Prices[l].At(httpSlot)
	}
	plan := core.NewPlan(sys)
	for _, ln := range pv.Lanes {
		st := ln.K*h.S + ln.S
		h.allowed[st][[2]int{ln.L, ln.Q}] = true
		h.share[st][ln.L] += ln.Rate
		// One replica's share is a replicas-th of the fleet's rate.
		plan.Rate[ln.K][ln.Q][ln.S][ln.L] += ln.Rate * replicas
	}
	for st := 0; st < n; st++ {
		k, s := st/h.S, st%h.S
		var planned float64
		for l := range h.share[st] {
			planned += h.share[st][l]
		}
		arrival := sc.Traces[s].At(httpSlot, k)
		if math.Abs(planned*replicas-arrival) > 1e-6*arrival {
			c.failf("stream k=%d s=%d planned %g of %g arrivals", k, s, planned*replicas, arrival)
		}
		for l := range h.share[st] {
			if planned > 0 {
				h.share[st][l] /= planned
			}
		}
	}
	copy(plan.ServersOn, pv.ServersOn)
	got := profit(in, plan)
	if want := pv.Objective * replicas; math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		c.failf("recomputed Eq. 5 profit %.9g, server objective %.9g", got, want)
	}
	return h, got
}

// checkShares checks each stream's per-center counts against the plan's
// lane shares: a count may stray from its expectation n·p by at most six
// binomial standard deviations plus one request.
func (h *httpRouting) checkShares(t *tally, c *checks) {
	for st, counts := range t.perCenter {
		var n int64
		for _, x := range counts {
			n += x
		}
		for l, x := range counts {
			p := h.share[st][l]
			exp := float64(n) * p
			bound := 6*math.Sqrt(float64(n)*p*(1-p)) + 1
			if math.Abs(float64(x)-exp) > bound {
				c.failf("stream %d center %d: %d of %d requests, plan share %.4f expects %.1f±%.1f", st, l, x, n, p, exp, bound)
			}
		}
	}
}

// statsView is the part of /admin/stats the reconciliation reads.
type statsView struct {
	Replicas []struct {
		ID    string `json:"id"`
		Epoch uint64 `json:"epoch"`
		Stats struct {
			TotalAdmitted int64
		} `json:"stats"`
	} `json:"replicas"`
}

func runHTTPServe(o options) (*result, error) {
	if o.serveBin == "" {
		return nil, fmt.Errorf("http-serve needs -serve-bin, the built profitlb binary")
	}
	// The client runs on one P. Its two goroutines spend most of their
	// time blocked on the network, and a second P only adds runtime
	// threads spinning and parking between requests, which made the
	// client's CPU per request, and the server's beside it, drift between
	// runs. The server keeps its default.
	runtime.GOMAXPROCS(1)
	sc := httpScenario(o.seed)
	cfgPath := filepath.Join(o.work, fmt.Sprintf("http-serve-%d.json", os.Getpid()))
	f, err := os.Create(cfgPath)
	if err != nil {
		return nil, err
	}
	if err := sc.Save(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	defer os.Remove(cfgPath)

	var setup []time.Duration
	var srv *server
	for i := 0; i < httpSetups; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		if srv, err = startServer(o.serveBin, cfgPath); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(start))
	}
	defer srv.stop()

	var c checks
	var pv planView
	if err := srv.getJSON("/admin/plan", &pv); err != nil {
		return nil, err
	}
	if pv.Degraded {
		c.failf("the served plan is degraded")
	}
	h, slotProfit := routingFrom(sc, &pv, &c)

	all := newTally(h.K*h.S, h.L)
	all.add(h.load(srv.base, o.seed, 0, httpWarmup))
	// Both runs send the same load and read both processes' CPU time
	// around it. The traced run also times Gateway.Handle out of band.
	// Nothing on the request path is traced, so tracing costs the
	// requests nothing and trace.overhead_pct is 0 here.
	srvCPU0, err1 := cpuSeconds(srv.pid())
	cliCPU0, err2 := cpuSeconds("self")
	rss := sampleRSS(srv.pid())
	t := h.load(srv.base, o.seed, 1, secs(o.seconds))
	rssSamples, err5 := rss()
	srvCPU1, err3 := cpuSeconds(srv.pid())
	cliCPU1, err4 := cpuSeconds("self")
	if err := firstErr(err1, err2, err3, err4, err5); err != nil {
		return nil, err
	}
	all.add(t)
	res := &result{Attempted: t.sent, Failed: t.failed}
	n := float64(t.sent)
	if !o.trace {
		endToEnd(res, setup, t.lat, (srvCPU1-srvCPU0)/n*1e6, slotProfit, rssSamples)
	} else {
		ns, allocs, err := handleCost(sc, o.seed)
		if err != nil {
			return nil, err
		}
		if err := perLayer(res, map[string]float64{
			"serve.cpu_us_per_req":   (srvCPU1 - srvCPU0) / n * 1e6,
			"client.cpu_us_per_req":  (cliCPU1 - cliCPU0) / n * 1e6,
			"dispatch.handle_ns":     ns,
			"dispatch.handle_allocs": allocs,
		}); err != nil {
			return nil, err
		}
	}
	h.checkShares(all, &c)
	var sv statsView
	if err := srv.getJSON("/admin/stats", &sv); err != nil {
		return nil, err
	}
	var admitted int64
	for _, r := range sv.Replicas {
		admitted += r.Stats.TotalAdmitted
		if r.Epoch != pv.Epoch {
			c.failf("replica %s at epoch %d, the plan's is %d: the run crossed a slot boundary", r.ID, r.Epoch, pv.Epoch)
		}
	}
	if len(sv.Replicas) != replicas {
		c.failf("server reports %d replicas, want %d", len(sv.Replicas), replicas)
	}
	if admitted != all.ok {
		c.failf("client counted %d answers of 200, replicas admitted %d", all.ok, admitted)
	}
	res.Correct = c.ok()
	return res, nil
}

// handleCost times direct Gateway.Handle calls on the same scenario's
// plan, compiled in this process: mean ns and heap allocations per call
// over a seeded stream sequence.
func handleCost(sc *config.Scenario, seed int64) (ns, allocs float64, err error) {
	src, err := sim.NewInputSource(sc.SimConfig())
	if err != nil {
		return 0, 0, err
	}
	gw := dispatch.NewGateway(sc.System, sc.DispatchConfig(), nil)
	drv := &dispatch.Driver{Gateway: gw, Planner: resilient.Wrap(core.NewOptimized()), Source: src}
	if _, err := drv.BeginSlot(sc.StartSlot, 0); err != nil {
		return 0, 0, err
	}
	const calls = 200000
	K, S := sc.System.K(), sc.System.S()
	rng := rand.New(rand.NewSource(mix(seed, 13)))
	ks := make([]int32, calls)
	for i := range ks {
		ks[i] = int32(rng.Intn(K * S))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, st := range ks {
		gw.Handle(int(st)/S, int(st)%S, float64(i)*1e-9)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / calls, float64(after.Mallocs-before.Mallocs) / calls, nil
}

// rssEvery is the interval between two samples of the server's resident
// set during the timed load.
const rssEvery = 100 * time.Millisecond

// sampleRSS samples a process's resident set every rssEvery until the
// returned function is called; that call stops the sampler, waits for it
// and returns the samples.
func sampleRSS(pid string) func() ([]float64, error) {
	stop := make(chan struct{})
	type out struct {
		mbs []float64
		err error
	}
	done := make(chan out)
	go func() {
		var o out
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- o
				return
			case <-tick.C:
				mb, err := rssMB(pid)
				if err != nil {
					o.err = err
				} else {
					o.mbs = append(o.mbs, mb)
				}
			}
		}
	}()
	return func() ([]float64, error) {
		close(stop)
		o := <-done
		return o.mbs, o.err
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
