package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"

	"profitlb/internal/core"
	"profitlb/internal/mpc"
	"profitlb/internal/sim"
)

// child runs this benchmark once more as its own process, for one
// workload, and returns the result line it printed.
func child(o options, workload string, seed int64, seconds float64, trace bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-serve-bin", o.serveBin, "-work", o.work,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
	}
	return &res, nil
}

// runAll runs every workload to its end, untraced and then traced, each
// in its own process, and prints their metrics and operation counts. It
// fails when any run fails an output check.
func runAll(o options) error {
	var bad []string
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := child(o, w, o.seed, o.seconds, trace)
			kind := "end-to-end"
			if trace {
				kind = "per-layer (traced run)"
			}
			if res == nil {
				return err
			}
			fmt.Printf("%s, %s: correct=%v attempted=%d failed=%d\n", w, kind, res.Correct, res.Attempted, res.Failed)
			names := make([]string, 0, len(res.Metrics))
			for name := range res.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m := res.Metrics[name]
				fmt.Printf("  %-26s %14.6g %s\n", name, m.Value, m.Unit)
			}
			if err != nil || !res.Correct {
				bad = append(bad, w)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("output checks failed on %s", strings.Join(bad, ", "))
	}
	return nil
}

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) gives them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		switch {
		case j < 1:
			j, delta = 1, 0
		case j > n-1:
			j, delta = n-1, 4
		}
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// steadyRuns is the number of runs in each of the steadiness mode's two
// sets.
const steadyRuns = 10

// steadiness runs each workload in two interleaved sets of steadyRuns
// seeded runs and prints, per end-to-end metric, each set's median,
// quartiles and spread (interquartile distance over the median) and how
// far the second set's median lies from the first's, in either
// direction, against the metric's bound in BENCHMARK.json. It also
// compares the two sets' shares of failed operations, which must be
// identical.
func steadiness(o options) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if o.workload == "" || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	var problems []string
	for _, w := range names {
		sets := [2][]*result{}
		start := time.Now()
		for i := 0; i < 2*steadyRuns; i++ {
			seed := o.seed + int64(i)
			res, err := child(o, w, seed, spec.RunSeconds, false)
			if err != nil {
				return err
			}
			sets[i%2] = append(sets[i%2], res)
		}
		fmt.Printf("%s: 2 sets × %d runs, seeds %d..%d, %.0fs\n", w, steadyRuns, o.seed, o.seed+int64(2*steadyRuns-1), time.Since(start).Seconds())
		fmt.Printf("  %-20s %12s %12s %12s %8s | %12s %8s | %8s %6s\n", "metric", "median A", "q1 A", "q3 A", "spread", "median B", "spread", "B vs A", "bound")
		for _, m := range spec.EndToEnd {
			var stat [2]struct{ q1, q2, q3, spread float64 }
			for s := 0; s < 2; s++ {
				var xs []float64
				for _, r := range sets[s] {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				q1, q2, q3 := quartiles(xs)
				stat[s].q1, stat[s].q2, stat[s].q3 = q1, q2, q3
				stat[s].spread = (q3 - q1) / math.Abs(q2)
			}
			// The sets are interchangeable, so a shift either way counts.
			shift := (stat[1].q2 - stat[0].q2) / math.Abs(stat[0].q2)
			verdict := "steady"
			for s := 0; s < 2; s++ {
				if stat[s].spread > m.Bound {
					verdict = "SPREAD OVER BOUND"
				} else if stat[s].spread > m.Bound/3 && verdict == "steady" {
					verdict = "spread over bound/3"
				}
			}
			if math.Abs(shift) > m.Bound {
				verdict = "MEDIANS DIFFER"
			}
			if strings.ToUpper(verdict) == verdict {
				problems = append(problems, w+" "+m.Name)
			}
			fmt.Printf("  %-20s %12.6g %12.6g %12.6g %7.2f%% | %12.6g %7.2f%% | %+7.2f%% %5.0f%%  %s\n",
				m.Name, stat[0].q2, stat[0].q1, stat[0].q3, 100*stat[0].spread,
				stat[1].q2, 100*stat[1].spread, 100*shift, 100*m.Bound, verdict)
			for s, set := range sets {
				fmt.Printf("  %20s", "set "+"AB"[s:s+1]+":")
				for _, r := range set {
					fmt.Printf(" %.4g", r.Metrics[m.Name].Value)
				}
				fmt.Println()
			}
		}
		var share [2]string
		for s := 0; s < 2; s++ {
			var att, fail int64
			for _, r := range sets[s] {
				att += r.Attempted
				fail += r.Failed
				if !r.Correct {
					problems = append(problems, w+" output check")
				}
			}
			share[s] = fmt.Sprintf("%d/%d", fail, att)
			if att > 0 && fail > 0 {
				share[s] += fmt.Sprintf(" = %.9g", float64(fail)/float64(att))
			}
		}
		fmt.Printf("  failed share: set A %s, set B %s\n", share[0], share[1])
		for s := 0; s < 2; s++ {
			for _, r := range sets[s] {
				a, b := sets[0][0], r
				if a.Failed*b.Attempted != b.Failed*a.Attempted {
					problems = append(problems, w+" failed share")
				}
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("not steady: %s", strings.Join(problems, "; "))
	}
	return nil
}

// printReference prints the README's reference figures: scale-day's
// planner with and without warm start, paper-day's warm-versus-cold
// ratio, and the mpc-defer scenario through sim.Run beside the online
// pipeline's deferral ledger.
func printReference(o options) error {
	for _, warm := range []bool{true, false} {
		w := scaleDayInputs()
		st, d, err := planDay(w, 24, warm)
		if err != nil {
			return err
		}
		fmt.Printf("scale-day, WarmStart=%v: %.2fs per day; pivots warm %d, cold %d, abandoned %d; warm fallbacks %d; sparse solves %d\n",
			warm, d.Seconds(), st.WarmPivots, st.ColdPivots, st.AbandonedPivots, st.WarmFallbacks, st.SparseSolves)
	}
	var dur [2]time.Duration
	for i, warm := range []bool{true, false} {
		w := paperDayInputs(o.seed)
		_, d, err := planDay(w, 24*paperDays, warm)
		if err != nil {
			return err
		}
		dur[i] = d / paperDays
		fmt.Printf("paper-day, WarmStart=%v: %.1f ms per day (mean of %d days, seed %d)\n", warm, float64(d.Microseconds())/1e3/paperDays, paperDays, o.seed)
	}
	fmt.Printf("paper-day: cold/warm time ratio %.2f\n", dur[1].Seconds()/dur[0].Seconds())

	w := mpcDeferInputs()
	cfg := w.cfg
	cfg.Slots = 24 * mpcDays
	rep, err := sim.Run(cfg, mpc.New(mpc.Config{Horizon: w.horizon, MaxDefer: w.maxDefer, EndSlot: cfg.Slots}))
	if err != nil {
		return err
	}
	deferred, drained, forced, shed := rep.DeferralTotals()
	T := cfg.Sys.Slot()
	fmt.Printf("mpc-defer through sim.Run (%d days): deferred %.0f req, drained %.0f, forced %.0f, shed %.0f, final backlog %.0f; batch completion %.1f%%; net profit %.2f USD\n",
		mpcDays, deferred*T, drained*T, forced*T, shed*T, rep.FinalBacklog()*T, 100*rep.CompletionRate(1), rep.TotalNetProfit())
	// One round: the shortest run the workload makes.
	res, err := runMPCDefer(options{seed: o.seed, seconds: 1e-9})
	if err != nil {
		return err
	}
	fmt.Printf("mpc-defer through the online pipeline (%d days): %d deferrable req offered, %d never served (failed)\n",
		mpcDays, res.Attempted, res.Failed)
	return nil
}

// planDay plans slots slots of w with the optimized planner alone and
// returns its summed search statistics and wall time.
func planDay(w *inputs, slots int, warm bool) (core.SearchStats, time.Duration, error) {
	var sum, st core.SearchStats
	p := core.NewOptimized()
	p.WarmStart = warm
	p.Stats = &st
	src, err := sim.NewInputSource(w.cfg)
	if err != nil {
		return sum, 0, err
	}
	var busy time.Duration
	for abs := 0; abs < slots; abs++ {
		in, err := src.PlannerInput(abs)
		if err != nil {
			return sum, 0, err
		}
		start := time.Now()
		if _, err := p.Plan(in); err != nil {
			return sum, 0, err
		}
		busy += time.Since(start)
		sum.Solves += st.Solves
		sum.WarmPivots += st.WarmPivots
		sum.ColdPivots += st.ColdPivots
		sum.AbandonedPivots += st.AbandonedPivots
		sum.WarmFallbacks += st.WarmFallbacks
		sum.SparseSolves += st.SparseSolves
	}
	return sum, busy, nil
}
