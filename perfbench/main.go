// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed number of seconds and prints, as the last line of
// its standard output, one JSON object with the run's correctness, its
// attempted and failed operation counts and its metrics:
//
//	perfbench --workload paper-day --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (measured without
// any per-layer timing); with --trace 1 they are the per-layer ones from a
// separate traced run. Without --workload it runs every workload, traced
// and untraced, each in its own process. --steadiness runs each workload
// in two interleaved sets of seeded runs and compares them against the
// bounds in BENCHMARK.json; --reference prints the README's reference
// figures. See README.md for the workloads and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads lists the benchmark's workloads in run order.
var workloads = []string{"http-serve", "paper-day", "mpc-defer"}

// options are the parsed command-line flags.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	serveBin   string
	work       string
	steadiness bool
	reference  bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty runs all of them)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.serveBin, "serve-bin", "", "path of the built profitlb binary (http-serve)")
	fs.StringVar(&o.work, "work", "", "directory for scenario files")
	fs.BoolVar(&o.steadiness, "steadiness", false, "run two interleaved sets of seeded runs per workload and compare them with BENCHMARK.json's bounds")
	fs.BoolVar(&o.reference, "reference", false, "print the README's reference figures")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if o.work == "" {
		o.work = os.TempDir()
	}
	switch {
	case o.reference:
		return exitCode(printReference(o))
	case o.steadiness:
		return exitCode(steadiness(o))
	case o.workload == "":
		return exitCode(runAll(o))
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func exitCode(err error) int {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// runWorkload dispatches one workload run.
func runWorkload(o options) (*result, error) {
	switch o.workload {
	case "http-serve":
		return runHTTPServe(o)
	case "paper-day":
		return runPaperDay(o)
	case "mpc-defer":
		return runMPCDefer(o)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// checks collects output-check failures. Any failure makes the run
// incorrect; the first few are printed to standard error.
type checks struct {
	failures int
}

func (c *checks) failf(format string, args ...any) {
	c.failures++
	if c.failures <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func (c *checks) ok() bool { return c.failures == 0 }

// window is one round of slots on a planning workload: its boundaries
// and their CPU time.
type window struct {
	ops  int
	busy time.Duration
}

// endToEnd fills the untraced metrics every workload reports. The
// operation is a request (http-serve) or a slot boundary (the planning
// workloads); lat holds one latency per operation, cpuPerOp is the
// system's CPU time per operation in microseconds and rss holds the
// resident-set samples taken during the run.
func endToEnd(res *result, setup, lat []time.Duration, cpuPerOp, profitPerSlot float64, rss []float64) {
	res.set("setup_s", median(durSeconds(setup)), "s")
	res.set("cpu_us_per_op", cpuPerOp, "us")
	res.set("latency_p50_us", median(durMicros(lat)), "us")
	res.set("profit_usd_per_slot", profitPerSlot, "USD/slot")
	res.set("rss_mb", median(rss), "MB")
}

// perLayerNames lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. Each traced run reports all of them; a
// layer a workload does not run reads 0.
var perLayerNames = [][2]string{
	{"serve.cpu_us_per_req", "us"},
	{"client.cpu_us_per_req", "us"},
	{"dispatch.handle_ns", "ns"},
	{"dispatch.handle_allocs", "count"},
	{"sim.input_ms", "ms"},
	{"core.plan_ms", "ms"},
	{"core.lp_solves", "count"},
	{"core.cache_hit_ratio", "ratio"},
	{"lp.warm_pivots", "count"},
	{"lp.cold_pivots", "count"},
	{"lp.abandoned_pivots", "count"},
	{"lp.useful_pivot_ratio", "ratio"},
	{"lp.warm_fallbacks", "count"},
	{"lp.sparse_solves", "count"},
	{"core.verify_ms", "ms"},
	{"dispatch.compile_ms", "ms"},
	{"cluster.publish_ms", "ms"},
	{"cluster.apply_ms", "ms"},
	{"dispatch.first_admit_us", "us"},
	{"mpc.deferred_req", "req"},
	{"mpc.drained_req", "req"},
	{"mpc.backlog_req", "req"},
	{"resilient.fallback_slots", "count"},
	{"trace.overhead_pct", "%"},
}

// perLayer fills every per-layer metric from vals, 0 where absent.
func perLayer(res *result, vals map[string]float64) error {
	known := map[string]bool{}
	for _, nu := range perLayerNames {
		known[nu[0]] = true
		res.set(nu[0], vals[nu[0]], nu[1])
	}
	for name := range vals {
		if !known[name] {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return nil
}

// overheadPct is the traced run's loss of boundaries per CPU-second
// against the untraced phase of the same run, in percent.
func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return (untraced - traced) / untraced * 100
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func durMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e3
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
