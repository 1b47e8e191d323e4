// Command bench is the repository's benchmark: four workloads over the
// RobustStore stack, each reporting the same end-to-end metrics, plus a
// traced run per workload that says where the time goes. It changes no
// code of the system: every number is taken from outside, through public
// functions and the interfaces the packages already expose.
//
// The driver's contract (see ../BENCHMARK.json):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without --workload it runs
// all four, untraced then traced, and prints every metric by name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"robuststore/internal/detsort"
	"robuststore/internal/stats"
)

// metricDef names one metric; the tables below are the benchmark's
// vocabulary and must match BENCHMARK.json (bench_test.go checks it).
type metricDef struct {
	Name, Unit string
	Better     string  // "lower" | "higher"
	Bound      float64 // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd is reported by every workload with --trace 0. Latency and
// throughput are on the workload's own clock — virtual time on the three
// simulator workloads (repeats bit-exactly for a seed), the wall clock on
// live_cart — and everything host_* and setup_s is this machine's clock.
//
// Latency is a mean and a p99, not a median: web-tier latency is bimodal
// (reads a few ms, writes a few hundred), and on tpcw_sharded_txn writes are
// 49.6 to 50.5 % of the interactions depending on the seed, so the median
// lands in one mode or the other (12 or 57 ms) and measures the mix, not the
// system. The medians of reads and of writes are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"actions_per_s", "1/s", "higher", 0.03},
	{"mean_ms", "ms", "lower", 0.10},
	{"p99_ms", "ms", "lower", 0.25},
	{"host_allocs_per_action", "count", "lower", 0.03},
	{"host_bytes_per_action", "B", "lower", 0.05},
	{"host_live_heap_mb", "MB", "lower", 0.05},
}

// modelMetric marks the end-to-end metrics that are on the workload's own
// clock: on a simulator workload they repeat exactly for a seed.
var modelMetric = map[string]bool{"actions_per_s": true, "mean_ms": true, "p99_ms": true}

// options are the command's arguments.
type options struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	Quick    bool // ~1/20 scale, for the smoke test
	Quiet    bool // a repeat pass: do not print the configuration again
}

// pass is one execution of a workload from a fresh system.
type pass struct {
	SetupS    float64 // CPU seconds, see setupClock
	SetupWall float64 // wall seconds, printed beside it
	Attempted int64
	Failed    int64
	Actions   int64 // successful actions in the timed section
	Host      hostCost

	// Model holds results on the workload's own clock. On the simulator
	// workloads two passes with one seed must agree on every entry exactly.
	Model map[string]float64

	// Layer holds per-layer results (traced passes only).
	Layer map[string]float64

	// Problems lists failed correctness checks; empty means correct.
	Problems []string
}

func (p *pass) problemf(format string, args ...any) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs.
type workload struct {
	Name string
	Why  string
	Load string // open or closed loop, with its rate or client count
	Sim  bool   // runs on the seeded simulator: Model repeats exactly

	// Gated workloads are the ones BENCHMARK.json lists, whose end-to-end
	// metrics are steady enough to hold a bound (see README.md).
	Gated bool

	// Run executes one pass from a fresh system.
	Run func(o options, traced bool) (*pass, error)
}

var workloads = []workload{orderPipeline, tpcwCrash, tpcwShardedTxn, liveCart}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is what one invocation reports for one workload.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Passes    int
	Problems  []string
}

// pinnedSeeds are measured by every run, whatever its --seed; the run's own
// seed adds one more. The modelled system settles into different regimes
// from seed to seed (which replica leads, whether fast rounds collide), and
// one seed's tail latency sits fifteen percent off the next one's. Pinned
// inputs keep a run's model numbers comparable with every other run's; the
// seed-derived input shows a change on inputs it was not written against.
// Each of the three still repeats bit-exactly.
var pinnedSeeds = []uint64{1, 2}

// inputs is how many distinct seeds a run measures.
var inputs = len(pinnedSeeds) + 1

// subSeed returns the seed of a run's i-th pass: the pinned seeds, then the
// run's own (offset past the pinned ones so it never collides with them),
// then around again.
func subSeed(run uint64, i int) uint64 {
	if k := i % inputs; k < len(pinnedSeeds) {
		return pinnedSeeds[k]
	}
	return run + uint64(inputs)
}

// runEndToEnd makes untraced passes, cycling through the run's sub-seeds,
// until o.Seconds of wall time are used — at least one pass per sub-seed
// and one repeat, for the determinism check. Model results are the mean
// over sub-seeds; host results are medians of passes.
func runEndToEnd(w workload, o options) (result, error) {
	var passes []*pass
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		runtime.GC() // the previous pass's system is garbage: collect it outside any timing
		t0 := time.Now()
		po := o
		po.Seed = subSeed(o.Seed, i)
		po.Quiet = i > 0
		p, err := w.Run(po, false)
		if err != nil {
			return result{}, err
		}
		passes = append(passes, p)
		fmt.Printf("   pass %d (sub-seed %d): setup %.3f s cpu (%.3f s wall); timed section %.3f s wall, %.3f s cpu, %d actions, %d allocs, live heap %.1f MB\n",
			i, po.Seed, p.SetupS, p.SetupWall, float64(p.Host.WallNs)/1e9, float64(p.Host.CPUNs)/1e9, p.Actions, p.Host.Mallocs, p.Host.LiveHeapMB)
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if len(passes) > inputs && time.Since(start)+longest > time.Duration(o.Seconds*float64(time.Second)) {
			break
		}
	}
	res := result{Metrics: map[string]float64{}, Passes: len(passes)}
	col := func(f func(*pass) float64) []float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return xs
	}
	perAction := func(f func(hostCost) float64) []float64 {
		return col(func(p *pass) float64 { return f(p.Host) / float64(max(p.Actions, 1)) })
	}
	res.Metrics["setup_s"] = stats.Percentile(col(func(p *pass) float64 { return p.SetupS }), 50)
	for name := range modelMetric {
		res.Metrics[name] = stats.Mean(col(func(p *pass) float64 { return p.Model[name] })[:inputs])
	}
	res.Metrics["host_allocs_per_action"] = stats.Percentile(perAction(func(h hostCost) float64 { return float64(h.Mallocs) }), 50)
	res.Metrics["host_bytes_per_action"] = stats.Percentile(perAction(func(h hostCost) float64 { return float64(h.Bytes) }), 50)
	res.Metrics["host_live_heap_mb"] = stats.Percentile(col(func(p *pass) float64 { return p.Host.LiveHeapMB }), 50)
	for i, p := range passes {
		res.Attempted += p.Attempted
		res.Failed += p.Failed
		for _, msg := range p.Problems {
			res.Problems = append(res.Problems, fmt.Sprintf("pass %d: %s", i, msg))
		}
		if first := i % inputs; w.Sim && first != i {
			res.Problems = append(res.Problems, modelDiff(fmt.Sprintf("pass %d vs pass %d", i, first), passes[first].Model, p.Model)...)
		}
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// modelDiff lists entries of two same-seed model results that differ. The
// simulator is deterministic, so any difference is a bug in the system or
// in the benchmark, never noise.
func modelDiff(what string, want, got map[string]float64) []string {
	var out []string
	for _, k := range detsort.Keys(want) {
		if g, ok := got[k]; !ok || g != want[k] {
			out = append(out, fmt.Sprintf("%s: model %s = %v, expected %v (one seed must repeat exactly)", what, k, got[k], want[k]))
		}
	}
	if len(got) != len(want) {
		out = append(out, fmt.Sprintf("%s: model has %d entries, expected %d", what, len(got), len(want)))
	}
	return out
}

// runTraced makes one untraced and one traced pass and reports every
// per-layer metric. End-to-end numbers never come from here.
func runTraced(w workload, o options) (result, error) {
	o.Seed = subSeed(o.Seed, len(pinnedSeeds)) // the run's own input
	plain, err := w.Run(o, false)
	if err != nil {
		return result{}, err
	}
	o.Quiet = true
	traced, err := w.Run(o, true)
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]float64{}, Passes: 2}
	for _, d := range perLayer {
		res.Metrics[d.Name] = traced.Layer[d.Name] // 0 where the layer is not in this workload
	}
	for k := range traced.Layer {
		if _, ok := res.Metrics[k]; !ok {
			res.Problems = append(res.Problems, "per-layer metric "+k+" is not in the perLayer table")
		}
	}
	micro := runMicro(o)
	for k, v := range micro {
		res.Metrics[k] = v
	}
	// Host time per action comes from the untraced pass. It is not an
	// end-to-end metric because this sandbox cannot hold a bound on it: the
	// same pass costs 15-30 % more CPU from one minute to the next.
	wallPer := func(p *pass) float64 { return float64(p.Host.WallNs) / float64(max(p.Actions, 1)) }
	res.Metrics["host.wall_ns_per_action"] = wallPer(plain)
	res.Metrics["host.cpu_ns_per_action"] = float64(plain.Host.CPUNs) / float64(max(plain.Actions, 1))
	res.Metrics["trace_overhead_pct"] = 100 * (wallPer(traced)/wallPer(plain) - 1)
	res.Metrics["bench.failed_share"] = float64(traced.Failed) / float64(max(traced.Attempted, 1))
	res.Attempted = plain.Attempted + traced.Attempted
	res.Failed = plain.Failed + traced.Failed
	for _, msg := range plain.Problems {
		res.Problems = append(res.Problems, "untraced pass: "+msg)
	}
	for _, msg := range traced.Problems {
		res.Problems = append(res.Problems, "traced pass: "+msg)
	}
	if w.Sim {
		// Tracing only observes: on virtual time it must not move a
		// single model number.
		res.Problems = append(res.Problems, modelDiff("traced vs untraced pass", plain.Model, traced.Model)...)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}

// report prints the human-readable block for one result.
func report(w workload, o options, res result, defs []metricDef) {
	fmt.Printf("== %s  seed=%d  trace=%v  passes=%d\n", w.Name, o.Seed, o.Trace, res.Passes)
	fmt.Printf("   why:  %s\n   load: %s\n", w.Why, w.Load)
	for _, d := range defs {
		fmt.Printf("   %-34s %16.6g %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
	fmt.Printf("   attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, p := range res.Problems {
		fmt.Printf("   PROBLEM: %s\n", p)
	}
}

// jsonLine prints the driver's result object.
func jsonLine(res result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	fmt.Println(string(data))
	return nil
}

func runOne(w workload, o options) (result, []metricDef, error) {
	if o.Trace {
		res, err := runTraced(w, o)
		return res, perLayer, err
	}
	res, err := runEndToEnd(w, o)
	return res, endToEnd, err
}

func fingerprint(o options) {
	fmt.Printf("bench: %s %s/%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g quick=%v\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		o.Seed, o.Seconds, o.Quick)
	fmt.Printf("bench: model clock = virtual time on the seeded simulator; host clock = this machine\n")
}

func main() {
	var o options
	var trace int
	var checkRepeat bool
	flag.StringVar(&o.Workload, "workload", "", "workload to run (default: all four, untraced then traced)")
	flag.Uint64Var(&o.Seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.Seconds, "seconds", 30, "wall seconds one run measures for")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	flag.BoolVar(&o.Quick, "quick", false, "run at about 1/20 scale (smoke test)")
	flag.BoolVar(&checkRepeat, "check-repeat", false, "run every workload twice and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	o.Trace = trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	fingerprint(o)
	if err := run(o, checkRepeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, checkRepeat bool) error {
	if checkRepeat {
		return runCheckRepeat(o)
	}
	if o.Workload != "" {
		w, ok := findWorkload(o.Workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.Workload)
		}
		res, defs, err := runOne(w, o)
		if err != nil {
			return err
		}
		report(w, o, res, defs)
		if err := jsonLine(res, defs); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: outputs are not correct", w.Name)
		}
		return nil
	}
	bad := 0
	for _, traced := range []bool{false, true} {
		for _, w := range workloads {
			o.Trace = traced
			res, defs, err := runOne(w, o)
			if err != nil {
				return err
			}
			report(w, o, res, defs)
			if !res.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed their correctness checks", bad)
	}
	return nil
}

// runCheckRepeat is the two-set agreement proof: the whole end-to-end set
// twice in one invocation, compared metric by metric against the bounds
// (model numbers must match exactly; setup_s is shown, not judged).
func runCheckRepeat(o options) error {
	o.Trace = false
	var sets [2]map[string]result
	for i := range sets {
		sets[i] = map[string]result{}
		for _, w := range workloads {
			if !w.Gated {
				continue
			}
			res, err := runEndToEnd(w, o)
			if err != nil {
				return err
			}
			if !res.Correct {
				report(w, o, res, endToEnd)
				return fmt.Errorf("%s: outputs are not correct", w.Name)
			}
			sets[i][w.Name] = res
		}
	}
	fmt.Printf("%-18s %-26s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "worse by", "bound")
	failed := 0
	for _, w := range workloads {
		if !w.Gated {
			continue
		}
		for _, d := range endToEnd {
			a, b := sets[0][w.Name].Metrics[d.Name], sets[1][w.Name].Metrics[d.Name]
			worse := worseBy(d, a, b)
			verdict := ""
			switch {
			case d.Name == "setup_s":
				// One run's wall time moves by 20 % on its own here; the
				// driver judges set-up on medians of ten runs.
				verdict = "  (not judged)"
			case w.Sim && modelMetric[d.Name] && a != b:
				verdict = "  DISAGREE (model numbers must repeat exactly)"
				failed++
			case worse > d.Bound || worseBy(d, b, a) > d.Bound:
				verdict = "  DISAGREE"
				failed++
			}
			fmt.Printf("%-18s %-26s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.Name, d.Name, a, b, 100*worse, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics differ between the two sets by more than their bound", failed)
	}
	fmt.Println("both sets agree within every bound")
	return nil
}

// worseBy returns how much worse b is than a, as a share of a (negative
// when b is better).
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
