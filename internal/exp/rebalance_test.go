package exp

import (
	"testing"
)

// rebalanceRun is the resharding-under-fault scenario at its short size,
// shared (memoized) by the tests in this file and the golden run.
func rebalanceRun() RunResult {
	return RebalanceScenario(shortParams().suite())
}

// TestRebalanceScenario: a 2-group deployment grows to 3 live, with a
// source-group member killed mid-copy. The migration window must be
// finite, the crash must land inside it, no group may see an outage
// (resharding without downtime), and the joined group must carry real
// traffic with its own dependability row.
func TestRebalanceScenario(t *testing.T) {
	r := rebalanceRun()
	if r.FinalShards != 3 || len(r.PerGroup) != 3 {
		t.Fatalf("deployment did not grow: FinalShards=%d PerGroup=%d",
			r.FinalShards, len(r.PerGroup))
	}
	m := r.Migration
	if !m.Happened || m.NewGroup != 2 {
		t.Fatalf("migration not reported: %+v", m)
	}
	if m.WindowSec <= 0 || m.WindowSec > 60 {
		t.Fatalf("migration window %.2f s not finite/sane", m.WindowSec)
	}
	if m.MovedSlices == 0 || m.MovedSlices != m.TotalSlices/3 {
		t.Errorf("moved %d/%d slices, want a third", m.MovedSlices, m.TotalSlices)
	}
	// The victim died inside the migration window, and recovered.
	if r.Faults != 1 || len(r.CrashSec) != 1 {
		t.Fatalf("faults=%d crashes=%v, want the one mid-migration kill", r.Faults, r.CrashSec)
	}
	if r.CrashSec[0] < m.StartSec || r.CrashSec[0] > m.CutoverSec {
		t.Errorf("crash at t=%.1f s landed outside the migration window %.1f..%.1f",
			r.CrashSec[0], m.StartSec, m.CutoverSec)
	}
	if len(r.RecoverySec) != 1 {
		t.Fatalf("crashed member did not recover: %v", r.RecoverySec)
	}
	if r.Autonomy != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog recovery)", r.Autonomy)
	}
	// Resharding without downtime: every group — the one that lost a
	// member mid-handoff included — stayed available throughout.
	for _, g := range r.PerGroup {
		if g.Downtime != 0 || g.Availability != 1 {
			t.Errorf("group %d saw an outage during the rebalance: %+v", g.Group, g)
		}
	}
	// The joined group serves its migrated client slice.
	g2 := r.PerGroup[2]
	if g2.AWIPS <= 0 {
		t.Errorf("joined group carries no traffic: %+v", g2)
	}
	if g2.Accuracy < 99 {
		t.Errorf("joined group accuracy %.2f%%, want ≥99 (migration must not shed actions)", g2.Accuracy)
	}
	if r.Accuracy < 99.5 {
		t.Errorf("aggregate accuracy %.2f%% across the rebalance", r.Accuracy)
	}
	// The hold-don't-fail write path was exercised.
	if r.Proxy.Requeued == 0 {
		t.Error("no write was requeued during the freeze — the window had no traffic?")
	}
}

// TestRebalanceFormatter: the report carries the deployment's growth, the
// migration window, the moved share, the mid-migration crash and the
// per-group rows with their aggregate.
func TestRebalanceFormatter(t *testing.T) {
	r := rebalanceRun()
	rep := &report{}
	rebalance(rep, r)
	m := r.Migration
	const lr = "Live rebalance"
	for _, c := range []struct {
		col  string
		want float64
	}{
		{"groups", 2}, {"final groups", 3}, {"new group", float64(m.NewGroup)},
		{"moved slices", float64(m.MovedSlices)}, {"slices", float64(m.TotalSlices)},
		{"window s", m.WindowSec}, {"crashed server", float64(r.CrashedServers[0])},
		{"crash s", r.CrashSec[0]}, {"requeued writes", float64(r.Proxy.Requeued)},
	} {
		if got := num(t, rep, lr, "", c.col); got != c.want {
			t.Errorf("%s = %v, want %v", c.col, got, c.want)
		}
	}
	if got := num(t, rep, r.Cfg.Fault.Name, "aggregate", "AWIPS"); got <= 0 {
		t.Errorf("aggregate AWIPS = %v", got)
	}
	if got := num(t, rep, r.Cfg.Fault.Name, "2", "acc(%)"); got != r.PerGroup[2].Accuracy {
		t.Errorf("joined group's accuracy cell = %v, want %v", got, r.PerGroup[2].Accuracy)
	}
}
