package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/rbe"
)

func TestPercentileSampleCountRule(t *testing.T) {
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{0, 50, 0, false},        // nothing to report
		{1, 50, 1, true},         // the median needs no samples beyond it
		{100, 50, 50, true},      // nearest rank
		{100, 99, 99, false},     // one sample beyond p99: an outlier, not a tail
		{1000, 99, 990, true},    // exactly ten beyond
		{999, 99, 990, false},    // nine beyond
		{100, 90, 90, true},      // ten beyond p90
		{1099, 99, 1089, true},   // ceil(0.99*1099) = 1089, ten beyond
		{20000, 99, 19800, true}, // the sizes the workloads actually see
	}
	for _, c := range cases {
		got, ok := percentile(asc(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
}

func TestLadderStopsAfterFirstFailingRung(t *testing.T) {
	var ran []int
	rungs := climb([]int{10, 20, 30, 40, 50}, func(rate int) rungResult {
		ran = append(ran, rate)
		return rungResult{Rate: rate, Passed: rate < 30}
	})
	if len(rungs) != 3 || len(ran) != 3 || rungs[2].Rate != 30 || rungs[2].Passed {
		t.Fatalf("ladder ran %v, want it to stop after the failing 30 rung", ran)
	}
	all := climb([]int{10, 20}, func(rate int) rungResult { return rungResult{Rate: rate, Passed: true} })
	if len(all) != 2 {
		t.Fatalf("a ladder with no failing rung must run to the top, ran %d rungs", len(all))
	}
	// The pass rule: p99 within the limit, supported by its sample count,
	// and nothing left unfinished after the drain.
	for _, c := range []struct {
		p99        float64
		ok         bool
		unfinished int64
		want       bool
	}{
		{orderLimitMs, true, 0, true},
		{orderLimitMs + 0.001, true, 0, false},
		{1, false, 0, false},
		{1, true, 1, false},
	} {
		if got := rungPassed(c.p99, c.ok, c.unfinished); got != c.want {
			t.Errorf("rungPassed(%v, %v, %d) = %v, want %v", c.p99, c.ok, c.unfinished, got, c.want)
		}
	}
}

func TestSpanSelfTimeArithmetic(t *testing.T) {
	var now int64
	tr := &tracer{serial: true, clock: func() int64 { return now }}
	at := func(ns int64) { now = ns }

	// handle [0,100] contains send [10,30] and apply [40,90], which itself
	// contains storage [50,60]; a second top-level handle runs [200,250].
	at(0)
	tr.begin(spanHandle, 0)
	at(10)
	tr.begin(spanSend, 0)
	at(30)
	tr.end()
	at(40)
	tr.begin(spanApply, 0)
	at(50)
	tr.begin(spanStorage, 0)
	at(60)
	tr.end()
	at(90)
	tr.end()
	at(100)
	tr.end()
	at(200)
	tr.begin(spanHandle, 7)
	at(250)
	tr.end()

	got := tr.snapshot()
	want := map[spanKind]int64{
		spanHandle:  (100 - 20 - 50) + 50, // minus direct children only
		spanSend:    20,
		spanApply:   50 - 10,
		spanStorage: 10,
	}
	var sum int64
	for k, w := range want {
		if got.SelfNs[k] != w {
			t.Errorf("self time of %s = %d, want %d", spanNames[k], got.SelfNs[k], w)
		}
		sum += got.SelfNs[k]
	}
	if got.TopNs != 150 || sum != got.TopNs {
		t.Errorf("top-level time %d, self times sum to %d; both must be 150", got.TopNs, sum)
	}
	if got.Calls[spanHandle] != 2 {
		t.Errorf("handle calls = %d, want 2", got.Calls[spanHandle])
	}
	parents := []int{-1, 0, 0, 2, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %d (%s) parent = %d, want %d", i, s.Name, s.Parent, parents[i])
		}
	}
	if tr.spans[4].Req != 7 || tr.spans[4].End != 250 {
		t.Errorf("last span = %+v, want req 7 ending at 250", tr.spans[4])
	}
	// Totals subtract and add back field by field.
	if d := got.sub(got); d != (traceTotals{}) {
		t.Errorf("totals minus themselves = %+v", d)
	}
	if s := (traceTotals{}).add(got); s != got {
		t.Errorf("zero plus totals = %+v, want %+v", s, got)
	}
}

// TestQuickSmoke runs every workload at about 1/20 scale, untraced and
// traced: the benchmark builds, runs, passes its own correctness gates and
// fills every metric it declares.
func TestQuickSmoke(t *testing.T) {
	defer func(dir string) { outDir = dir }(outDir)
	outDir = t.TempDir()
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{Workload: w.Name, Seed: 1, Seconds: 0, Trace: traced, Quick: true}
			res, defs, err := runOne(w, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: metric %s = %v (present=%v)", w.Name, traced, d.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, v)
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestCalibrationParity guards the constants copied from internal/exp: a
// fault-free run built by the bench must reproduce exp's AWIPS for the same
// configuration, to the last interaction.
func TestCalibrationParity(t *testing.T) {
	const browsers, seed = 200, 1
	want := exp.RunUncached(exp.RunConfig{
		Profile: rbe.Shopping, Servers: 5, StateMB: 500, Fault: exp.NoFault,
		Browsers: browsers, Measure: 30 * time.Second, Seed: seed,
	})
	p, err := runTPCW(tpcwConfig{
		Name: "parity", Servers: 5, Shards: 1, Profile: rbe.Shopping, Browsers: browsers,
		Ramp: 30 * time.Second, Measure: 30 * time.Second,
	}, options{Seed: seed, Quiet: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Problems) > 0 {
		t.Fatalf("parity run failed its checks: %v", p.Problems)
	}
	if got := p.Model["awips"]; math.Abs(got-want.AWIPS) > 1e-9 || got == 0 {
		t.Fatalf("bench AWIPS = %v, exp.RunUncached AWIPS = %v: a copied calibration constant has drifted", got, want.AWIPS)
	}
}

// TestBenchmarkJSONMatchesTables keeps ../BENCHMARK.json and the metric
// tables in step: the driver reads the file, the program prints the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range file.Workloads {
		listed[w.Name] = true
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	for _, w := range workloads {
		if w.Gated != listed[w.Name] {
			t.Errorf("workload %s: gated=%v in the program, listed=%v in BENCHMARK.json", w.Name, w.Gated, listed[w.Name])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: file has %+v, program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: file bound %v, program bound %v", kind, i, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", kind, i, d.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
