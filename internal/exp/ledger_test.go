package exp

import (
	"testing"
	"time"

	"robuststore/internal/metrics"
	"robuststore/internal/rbe"
)

// TestLedgerWindows drives the ledger with no cluster behind it: re-firing
// a selector supersedes its open window, a restore with another selector
// of the same kind closes nothing, an opener never restored stays open to
// the end of the measurement, and crashes — matched to their server's
// first recovery after them — take precedence over windows.
func TestLedgerWindows(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	l := newLedger()
	l.t0 = t0
	lifted := 0
	wf := WindowFault{Open: OpPartition, Close: OpHeal, Kind: "partition",
		inject: func(*ledger, resolvedEvent, []int) func() { return func() { lifted++ } }}
	a := resolvedEvent{op: OpPartition, sel: Member(0, 0), groups: []int{0}}
	b := resolvedEvent{op: OpHeal, sel: Member(0, 1), groups: []int{0}}

	l.openWindow(wf, a, []int{0}, at(100))
	l.openWindow(wf, a, []int{0}, at(120))
	if lifted != 1 || len(l.windows) != 2 || l.windows[0].ToSec != 120 || l.windows[1].ToSec != -1 {
		t.Fatalf("re-firing a selector must lift and close its open window: lifted %d, windows %+v", lifted, l.windows)
	}
	l.closeWindow(wf, b, at(130))
	if lifted != 1 || l.windows[1].ToSec != -1 {
		t.Fatalf("a restore under another selector closed a window: lifted %d, windows %+v", lifted, l.windows)
	}
	if w, ok := l.window(-1, 30, 210); !ok || w != (metrics.Window{From: 100, To: 210}) {
		t.Fatalf("a window never restored must run to the end of the measurement: %+v %v", w, ok)
	}
	if _, ok := l.window(1, 30, 210); ok {
		t.Fatal("group 1 saw no fault, yet has a window")
	}
	l.closeWindow(wf, a, at(140))
	if w, ok := l.window(0, 30, 210); !ok || w != (metrics.Window{From: 100, To: 140}) {
		t.Fatalf("closed windows span first open to last close: %+v %v", w, ok)
	}

	// Listed later-crash-first; server 3 never comes back.
	l.crash(2, 0, at(90), true)
	l.crash(1, 0, at(60), true)
	l.crash(3, 1, at(70), true)
	l.recovered(1, at(50))  // before the crash: not its recovery
	l.recovered(1, at(80))  // the first after it
	l.recovered(1, at(150)) // a later one changes nothing
	l.recovered(2, at(110))
	if w, ok := l.window(-1, 30, 210); !ok || w != (metrics.Window{From: 60, To: 110}) {
		t.Fatalf("deployment window = %+v %v, want earliest crash 60 → last matched recovery 110", w, ok)
	}
	if w, ok := l.window(1, 30, 210); !ok || w != (metrics.Window{From: 70, To: 210}) {
		t.Fatalf("group 1 window = %+v %v, want crash 70 → end (never recovered)", w, ok)
	}
	if _, ok := l.window(0, 30, 55); ok {
		t.Fatal("a window past the measurement must not count")
	}
}

// TestRunMemoKeepsFractionalSchedulesApart: two faultloads equal but for a
// fraction of a second in one event are two runs, not one cached result
// (the hand-written key printed event times with %.0f).
func TestRunMemoKeepsFractionalSchedulesApart(t *testing.T) {
	cfg := RunConfig{Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Browsers: 100, Measure: 60 * time.Second, Seed: 4}
	for _, atSec := range []float64{240.2, 240.4} {
		cfg.Fault = Faultload{Name: "fractional", Events: []FaultEvent{
			{AtSec: atSec, Op: OpCrash, Select: Member(0, 0)}}}
		r := Run(cfg)
		if want := RunOffset(cfg.Measure, atSec).Seconds(); len(r.CrashSec) != 1 || r.CrashSec[0] != want {
			t.Errorf("crash scheduled at %v ran as %v, want [%v]", atSec, r.CrashSec, want)
		}
	}
}

// TestPerfWindowOpensAtEarliestCrash: the deployment's recovery window
// opens at the earliest crash whatever order the faultload lists them in.
func TestPerfWindowOpensAtEarliestCrash(t *testing.T) {
	sorted := shortRun(TwoCrashes)
	listed := TwoCrashes
	listed.Events = []FaultEvent{TwoCrashes.Events[1], TwoCrashes.Events[0]}
	r := shortRun(listed)
	if r.Perf != sorted.Perf || r.Perf.RecoveryAWIPS == 0 {
		t.Errorf("later crash listed first: Perf %+v, want %+v", r.Perf, sorted.Perf)
	}
	if r.PerGroup[0].Perf != sorted.PerGroup[0].Perf {
		t.Errorf("group Perf %+v, want %+v", r.PerGroup[0].Perf, sorted.PerGroup[0].Perf)
	}
}

// TestSingleGroupReportMirrorsRun: with one group, the run-level report and
// PerGroup[0] are the same measures of the same samples — under a crash and
// under a fault window.
func TestSingleGroupReportMirrorsRun(t *testing.T) {
	for _, r := range []RunResult{
		shortRun(OneCrash),
		Run(RunConfig{ // TestPartitionScenarioRun's
			Profile: rbe.Shopping, Servers: 3, StateMB: 300,
			Fault: LeaderIsolation(0, 60, 90), Browsers: 200, Measure: 120 * time.Second, Seed: 6,
		}),
	} {
		g := r.PerGroup[0]
		if len(r.PerGroup) != 1 || g.Perf != r.Perf || g.AWIPS != r.AWIPS || g.Availability != r.Availability {
			t.Errorf("%s: group 0 reports Perf %+v AWIPS %v availability %v, the run %+v %v %v",
				r.Cfg.Fault.Name, g.Perf, g.AWIPS, g.Availability, r.Perf, r.AWIPS, r.Availability)
		}
		if r.Perf.RecoveryAWIPS == 0 {
			t.Errorf("%s: empty performability window", r.Cfg.Fault.Name)
		}
	}
}
