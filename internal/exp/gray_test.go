package exp

import (
	"testing"
	"time"

	"robuststore/internal/rbe"
)

// TestGrayFailScenarioRun: a probe-healthy member erroring on real
// requests — one closed grayfail window on the x-axis, gray time
// accounted in the group report, no crashes (the fault never trips crash
// detection), and the quality gate pulling the victim out of rotation on
// served-traffic evidence alone. With the victim evicted, availability
// holds: the regression this pins is the pre-gate behavior where a gray
// non-leader kept absorbing its hash share of traffic and dragged
// client-visible errors for the whole window.
func TestGrayFailScenarioRun(t *testing.T) {
	fl := GrayFailServer(0, 0.9, 60, 100)
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 200, Measure: 120 * time.Second, Seed: 6,
	})
	if len(r.CrashSec) != 0 {
		t.Fatalf("gray-fail run recorded crashes: %v", r.CrashSec)
	}
	if len(r.FaultWindows) != 1 {
		t.Fatalf("fault windows = %+v, want one", r.FaultWindows)
	}
	w := r.FaultWindows[0]
	if w.Kind != "grayfail" || w.Group != 0 {
		t.Fatalf("window = %+v", w)
	}
	if w.Factor != 0.9 {
		t.Fatalf("window factor = %v, want 0.9", w.Factor)
	}
	if want := 40.0 * 120 / 540; w.ToSec-w.FromSec < want-1 || w.ToSec-w.FromSec > want+1 {
		t.Fatalf("window width %.1f s, want ≈%.1f (scaled 40 s)", w.ToSec-w.FromSec, want)
	}
	g := r.PerGroup[0]
	if g.Windows["grayfail"].Count != 1 || g.Windows["grayfail"].Sec <= 0 {
		t.Fatalf("group report missed the gray window: %+v", g)
	}
	if g.Crashes != 0 {
		t.Fatalf("gray failure must not crash anyone: %+v", g)
	}
	if r.Proxy.QualityEvictions < 1 {
		t.Fatalf("quality gate never evicted the gray server: %+v", r.Proxy)
	}
	if r.Availability < 0.99 {
		t.Fatalf("gray non-leader dragged availability to %v despite the quality gate", r.Availability)
	}
	if r.Accuracy < 97 {
		t.Fatalf("gray non-leader dragged accuracy to %v despite the quality gate", r.Accuracy)
	}
}

// TestLinkDelayScenarioRun: latency inflation on one member's links —
// a closed linkdelay window, delay time accounted per group, nothing
// dropped, nothing crashed.
func TestLinkDelayScenarioRun(t *testing.T) {
	fl := LinkDelayStraggler(0, 50, 60, 100)
	r := Run(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: fl, Browsers: 200, Measure: 120 * time.Second, Seed: 6,
	})
	if len(r.FaultWindows) != 1 || r.FaultWindows[0].Kind != "linkdelay" {
		t.Fatalf("fault windows = %+v", r.FaultWindows)
	}
	if f := r.FaultWindows[0].Factor; f != 50 {
		t.Fatalf("window factor = %v, want 50", f)
	}
	g := r.PerGroup[0]
	if g.Windows["linkdelay"].Count != 1 || g.Windows["linkdelay"].Sec <= 0 {
		t.Fatalf("group report missed the delay window: %+v", g)
	}
	if g.Crashes != 0 {
		t.Fatalf("link delay must not crash anyone: %+v", g)
	}
}

// TestGraySuiteScenarios: the named gray scenarios (gray member, gray
// leader, link-delay straggler, partition flap) all run to completion on
// the short deployment with sane dependability numbers.
func TestGraySuiteScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("full gray suite in -short mode")
	}
	rs := Suite(shortParams().suite(), GrayFaultloads())
	if len(rs) != 4 {
		t.Fatalf("gray suite ran %d scenarios, want 4", len(rs))
	}
	names := map[string]bool{}
	for _, r := range rs {
		names[r.Cfg.Fault.Name] = true
		if r.Availability < 0.9 {
			t.Errorf("%s: availability %v", r.Cfg.Fault.Name, r.Availability)
		}
		if r.AWIPS <= 0 {
			t.Errorf("%s: AWIPS %v", r.Cfg.Fault.Name, r.AWIPS)
		}
	}
	for _, want := range []string{"gray-fail", "gray-leader", "link-delay", "partition-flap"} {
		if !names[want] {
			t.Errorf("gray suite missing scenario %s (got %v)", want, names)
		}
	}
}
