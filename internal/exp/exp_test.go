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
	if r.Autonomy != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog recovery)", r.Autonomy)
	}
	if r.Accuracy < 99.9 {
		t.Errorf("accuracy = %v", r.Accuracy)
	}
	if r.Perf.FailureFreeAWIPS == 0 || r.Perf.RecoveryAWIPS == 0 {
		t.Error("performability windows empty")
	}
	// The dip must be bounded (paper: < 13 % in the worst case across
	// all faultloads).
	if r.Perf.PV < -25 {
		t.Errorf("PV = %v%%, implausibly deep", r.Perf.PV)
	}
}

func TestDelayedRecoveryAutonomy(t *testing.T) {
	r := shortRun(DelayedRecovery)
	if r.Faults != 2 {
		t.Fatalf("faults = %d", r.Faults)
	}
	// One of two recoveries was manual: autonomy 0.5 (the paper counts
	// interventions per fault).
	if r.Autonomy != 0.5 {
		t.Errorf("autonomy = %v, want 0.5", r.Autonomy)
	}
	if len(r.RecoverySec) < 2 {
		t.Fatalf("recoveries: %v", r.RecoverySec)
	}
	if r.PerfR2.RecoveryAWIPS == 0 {
		t.Error("second recovery window missing")
	}
	// Table 5's second window opens when the operator acts, in a shortened
	// run too: over 180 s the paper's t=390 s is t = 30 + (390−30)/3 = 150 s,
	// not 390/3 = 130 s, twenty seconds before the restart.
	if rec := r.RecoverySec[1]; rec <= 150 || rec >= 210 {
		t.Fatalf("manual recovery completed at t=%.0f s, outside the measured part of the window", rec)
	}
	if got, want := r.PerfR2.RecoveryAWIPS, stats.Mean(r.Series[150:int(r.RecoverySec[1])]); got != want {
		t.Errorf("R2 AWIPS = %v, want %v: the mean from the operator's restart at t=150 s to its recovery", got, want)
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

func TestFormatters(t *testing.T) {
	r := shortRun(OneCrash)
	m := map[string]RunResult{"5/s": r}
	var buf bytes.Buffer
	PrintPerformability(&buf, "Table X", m)
	PrintAccuracy(&buf, "Table Y", m)
	PrintDependability(&buf, "Dep", m)
	PrintHistogram(&buf, r)
	PrintRecoveryTimes(&buf, []RecoveryTimePoint{
		{Servers: 5, Profile: rbe.Shopping, StateMB: 300, RecoverySec: 44},
	})
	out := buf.String()
	for _, want := range []string{"Table X", "5/s", "WIPS histogram", "recovery times"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatter output missing %q", want)
		}
	}
	if !strings.Contains(out, "c") {
		t.Error("histogram missing crash marker")
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
