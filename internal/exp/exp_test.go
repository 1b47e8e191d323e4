package exp

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/stats"
)

// shortRun is the shopping cell of a fault matrix at its short size,
// shared (memoized) by the tests in this file and the golden run.
func shortRun(fault Faultload) RunResult {
	cfg, _ := shortParams().crash(fault)
	cfg.Profile, cfg.Servers = rbe.Shopping, 5
	return Run(cfg)
}

func TestFailureFreeRunIsClean(t *testing.T) {
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 5, StateMB: 300,
		Fault: NoFault, Browsers: 400, Measure: 120 * time.Second, Seed: 2,
	})
	if r.AWIPS < 350 || r.AWIPS > 400 {
		t.Errorf("AWIPS = %v, want ≈390 (closed loop, 400 browsers)", r.AWIPS)
	}
	if r.Errors != 0 {
		t.Errorf("failure-free run had %d errors", r.Errors)
	}
	if r.Availability != 1 {
		t.Errorf("availability = %v", r.Availability)
	}
	if !r.FastActive {
		t.Error("fast paxos should be active with all replicas up")
	}
	if r.InitialStateMB < 250 || r.InitialStateMB > 350 {
		t.Errorf("initial state = %v MB, want ≈300", r.InitialStateMB)
	}
	if r.FinalStateMB <= r.InitialStateMB {
		t.Error("state did not grow under a write workload")
	}
}

func TestOneCrashRunRecovers(t *testing.T) {
	r := shortRun(OneCrash)
	if len(r.CrashSec) != 1 || len(r.RecoverySec) != 1 {
		t.Fatalf("crash/recovery events: %v %v", r.CrashSec, r.RecoverySec)
	}
	if r.RecoverySec[0] <= r.CrashSec[0] {
		t.Fatal("recovery before crash")
	}
	if r.RecoveryDur[0] < 10 || r.RecoveryDur[0] > 200 {
		t.Errorf("recovery took %v s", r.RecoveryDur[0])
	}
	// The rest are the cells Tables 1 and 2 and the dependability summary
	// print for this run.
	rep := matrixReport(r)
	if a := num(t, rep, "Dep", "5/s", "autonomy"); a != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog recovery)", a)
	}
	if a := num(t, rep, "Table Y", "5", "shopping"); a < 99.9 {
		t.Errorf("accuracy = %v", a)
	}
	if num(t, rep, "Table X", "5/s", "ff AWIPS") == 0 || num(t, rep, "Table X", "5/s", "rec AWIPS") == 0 {
		t.Error("performability windows empty")
	}
	// The dip must be bounded (paper: < 13 % in the worst case across
	// all faultloads).
	if pv := num(t, rep, "Table X", "5/s", "PV(%)"); pv < -25 {
		t.Errorf("PV = %v%%, implausibly deep", pv)
	}
}

// matrixReport lays out r, the shopping cell of a five-replica fault matrix,
// as the matrix tables do, under the titles "Table X" (performability),
// "Table Y" (accuracy) and "Dep" (dependability).
func matrixReport(r RunResult) *report {
	m := map[string]RunResult{matrixKey(5, rbe.Shopping): r}
	rep := &report{}
	performability(rep, "Table X", m)
	accuracy(rep, "Table Y", m)
	dependability(rep, "Dep", m)
	return rep
}

func TestDelayedRecoveryAutonomy(t *testing.T) {
	r := shortRun(DelayedRecovery)
	rep := matrixReport(r)
	delayedPerformability(rep, map[string]RunResult{matrixKey(5, rbe.Shopping): r})
	if f := num(t, rep, "Dep", "5/s", "faults"); f != 2 {
		t.Fatalf("faults = %v", f)
	}
	// One of two recoveries was manual: autonomy 0.5 (the paper counts
	// interventions per fault).
	if a := num(t, rep, "Dep", "5/s", "autonomy"); a != 0.5 {
		t.Errorf("autonomy = %v, want 0.5", a)
	}
	if len(r.RecoverySec) < 2 {
		t.Fatalf("recoveries: %v", r.RecoverySec)
	}
	r2 := num(t, rep, "Table 5 — Delayed recovery: performability", "5/s", "R2 AWIPS")
	if r2 == 0 {
		t.Error("second recovery window missing")
	}
	// Table 5's second window opens when the operator acts, in a shortened
	// run too: over 180 s the paper's t=390 s is t = 30 + (390−30)/3 = 150 s,
	// not 390/3 = 130 s, twenty seconds before the restart.
	if rec := r.RecoverySec[1]; rec <= 150 || rec >= 210 {
		t.Fatalf("manual recovery completed at t=%.0f s, outside the measured part of the window", rec)
	}
	if want := stats.Mean(r.Series[150:int(r.RecoverySec[1])]); r2 != want {
		t.Errorf("R2 AWIPS = %v, want %v: the mean from the operator's restart at t=150 s to its recovery", r2, want)
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	cfg := RunConfig{
		Profile: rbe.Browsing, Servers: 4, StateMB: 300,
		Fault: NoFault, Browsers: 200, Measure: 60 * time.Second, Seed: 3,
	}
	a := runOnce(cfg.withDefaults())
	b := runOnce(cfg.withDefaults())
	if a.AWIPS != b.AWIPS || a.Total != b.Total || a.WIRTms != b.WIRTms {
		t.Fatalf("same seed diverged: %+v vs %+v", a.AWIPS, b.AWIPS)
	}
}

func TestMemoization(t *testing.T) {
	cfg := RunConfig{
		Profile: rbe.Browsing, Servers: 4, StateMB: 300,
		Fault: NoFault, Browsers: 100, Measure: 30 * time.Second, Seed: 4,
	}
	first := Run(cfg)
	start := time.Now()
	second := Run(cfg)
	if time.Since(start) > time.Second {
		t.Error("memoized run recomputed")
	}
	if first.AWIPS != second.AWIPS {
		t.Error("memoized result differs")
	}
}

// TestFormatters: the matrix tables carry the run's numbers in their cells,
// a row per run present, and its histogram marks the crash and the recovery
// in the bins they fall in.
func TestFormatters(t *testing.T) {
	r := shortRun(OneCrash)
	rep := matrixReport(r)
	for _, c := range []struct {
		table, col string
		want       float64
	}{
		{"Table X", "ff AWIPS", r.Perf.FailureFreeAWIPS}, {"Table X", "ff CV", r.Perf.FailureFreeCV},
		{"Table X", "rec AWIPS", r.Perf.RecoveryAWIPS}, {"Table X", "rec CV", r.Perf.RecoveryCV},
		{"Table X", "PV(%)", r.Perf.PV}, {"Dep", "availability", r.Availability},
		{"Dep", "faults", float64(r.Faults)}, {"Dep", "errors", float64(r.Errors)},
	} {
		if got := num(t, rep, c.table, "5/s", c.col); got != c.want {
			t.Errorf("%s 5/s %s = %v, want %v", c.table, c.col, got, c.want)
		}
	}
	if got := num(t, rep, "Table Y", "5", "shopping"); got != r.Accuracy {
		t.Errorf("accuracy cell = %v, want %v", got, r.Accuracy)
	}
	for _, b := range rep.blocks {
		for _, c := range b.cells {
			if c.row != "5/s" && c.row != "5" {
				t.Errorf("a cell for a run the matrix does not hold: %+v", c)
			}
		}
	}

	fig := &report{}
	fig.fig(r)
	var buf bytes.Buffer
	if err := fig.render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	marks := strings.TrimPrefix(strings.Fields(lines[len(lines)-1])[0], "+")
	bin := (len(r.Series) + 119) / 120
	if len(lines) != 14 || marks[int(r.CrashSec[0])/bin] != 'c' || marks[int(r.RecoverySec[0])/bin] != 'r' {
		t.Errorf("histogram does not mark the crash at t=%.0f s and the recovery at t=%.0f s:\n%s",
			r.CrashSec[0], r.RecoverySec[0], buf.String())
	}
}

func TestEBsForStateMB(t *testing.T) {
	for mb, want := range map[int]int{300: 30, 500: 50, 700: 70, 400: 40} {
		if got := ebsForStateMB(mb); got != want {
			t.Errorf("ebsForStateMB(%d) = %d, want %d", mb, got, want)
		}
	}
}

func TestPickVictimsDistinct(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		for _, servers := range []int{3, 5, 8} {
			v := pickVictimsInGroup(RunConfig{Seed: seed, Servers: servers, Profile: rbe.Ordering}, 0)
			if v[0] == v[1] {
				t.Fatalf("victims collide: %v (seed %d, servers %d)", v, seed, servers)
			}
			for _, x := range v {
				if x < 0 || x >= servers {
					t.Fatalf("victim out of range: %v", v)
				}
			}
		}
	}
}
