package exp

import (
	"testing"

	"robuststore/internal/metrics"
)

// groupOutageRun is the whole-group-down scenario of the sharded suite at
// its short size (a 2×3 deployment), shared (memoized) by the tests in
// this file and the golden run. Scaled times: crash at t=88 s, manual
// recovery at t=130 s, run ends at t=210 s.
func groupOutageRun() RunResult {
	return Suite(shortParams().suite(), []Faultload{GroupOutage(0, 240, 390)})[0]
}

// TestGroupOutageScenario: a whole group goes down (quorum loss for its
// client slice) until manual recovery. Every crashed member must come
// back, and the group's downtime clock must stop once it has — not run to
// the end of the experiment.
func TestGroupOutageScenario(t *testing.T) {
	r := groupOutageRun()
	if r.Faults != 3 {
		t.Fatalf("faults = %d, want 3 (every member of group 0)", r.Faults)
	}
	if len(r.RecoverySec) != 3 {
		t.Fatalf("recoveries = %v, want all 3 crashed members back", r.RecoverySec)
	}
	for _, srv := range r.CrashedServers {
		if srv/3 != 0 {
			t.Errorf("crashed server %d is outside group 0", srv)
		}
	}
	if len(r.PerGroup) != 2 {
		t.Fatalf("PerGroup has %d entries, want 2", len(r.PerGroup))
	}
	g0, g1 := r.PerGroup[0], r.PerGroup[1]
	if g0.Crashes != 3 || g0.Recoveries != 3 {
		t.Errorf("group 0: crashes=%d recoveries=%d, want 3/3", g0.Crashes, g0.Recoveries)
	}
	if g1.Crashes != 0 || g1.Downtime != 0 || g1.Availability != 1 {
		t.Errorf("group 1 must be untouched: %+v", g1)
	}
	// The outage spans manual recovery (t=100..150) plus state reload;
	// if the downtime clock failed to stop it would accrue to the run's
	// end (~230 s after the crash).
	down := g0.Downtime.Seconds()
	if down < 40 {
		t.Errorf("group 0 downtime = %.1f s, outage not registered", down)
	}
	if down > 150 {
		t.Errorf("group 0 downtime = %.1f s, kept accruing after recovery", down)
	}
	if g0.Availability >= 1 || r.Availability >= 1 {
		t.Errorf("availability must reflect the outage: group %v run %v",
			g0.Availability, r.Availability)
	}
	// Manual recovery of all three members: autonomy 3/3.
	if r.Autonomy != 1 {
		t.Errorf("autonomy = %v, want 1 (all recoveries manual)", r.Autonomy)
	}
	// The surviving group kept serving: its slice's accuracy stays high
	// while the crashed group's slice ate the outage errors.
	if g1.Accuracy < 99.9 {
		t.Errorf("group 1 accuracy = %v, must be unaffected", g1.Accuracy)
	}
	if g0.Accuracy >= g1.Accuracy {
		t.Errorf("group 0 accuracy %v should be below group 1's %v", g0.Accuracy, g1.Accuracy)
	}
}

// TestMemberEveryGroupScenario: one member of every group crashes at
// once; every group keeps its quorum, so there is no outage, and every
// crashed member recovers autonomously.
func TestMemberEveryGroupScenario(t *testing.T) {
	r := Suite(shortParams().suite(), []Faultload{MemberEveryGroup(270)})[0]
	if r.Faults != 2 {
		t.Fatalf("faults = %d, want one per group", r.Faults)
	}
	if len(r.RecoverySec) != 2 {
		t.Fatalf("recoveries = %v, want both crashed members back", r.RecoverySec)
	}
	if r.CrashedServers[0]/3 == r.CrashedServers[1]/3 {
		t.Errorf("victims %v landed in the same group", r.CrashedServers)
	}
	for _, g := range r.PerGroup {
		if g.Downtime != 0 || g.Availability != 1 {
			t.Errorf("group %d saw an outage despite keeping quorum: %+v", g.Group, g)
		}
		if g.Crashes != 1 || g.Recoveries != 1 {
			t.Errorf("group %d crashes/recoveries = %d/%d, want 1/1",
				g.Group, g.Crashes, g.Recoveries)
		}
		if g.MeanRecoverySec <= 0 {
			t.Errorf("group %d recovery time not measured", g.Group)
		}
	}
	if r.Autonomy != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog recoveries)", r.Autonomy)
	}
}

// TestShardedFormatters: the per-group report carries each group's numbers
// and the aggregate row folded from them, under the scenario's name, and the
// recovery curve a row per shard count.
func TestShardedFormatters(t *testing.T) {
	r := groupOutageRun()
	rep := &report{}
	shardedDependability(rep, r)
	if v := cellAt(t, rep, "group-outage", "", "faultload").value; v != "group-outage" {
		t.Errorf("title names %v, want group-outage", v)
	}
	agg := metrics.AggregateGroups(r.PerGroup, rampUp+r.Cfg.Measure+rampDown)
	for _, c := range []struct {
		row, col string
		want     float64
	}{
		{"0", "avail", r.PerGroup[0].Availability}, {"0", "down(s)", r.PerGroup[0].Downtime.Seconds()},
		{"1", "AWIPS", r.PerGroup[1].AWIPS}, {"aggregate", "AWIPS", agg.AWIPS},
		{"aggregate", "acc(%)", r.Accuracy}, {"aggregate", "avail", r.Availability},
		{"aggregate", "crashes", float64(agg.Crashes)}, {"aggregate", "PV(%)", r.Perf.PV},
	} {
		if got := num(t, rep, "group-outage", c.row, c.col); got != c.want {
			t.Errorf("group %s %s = %v, want %v", c.row, c.col, got, c.want)
		}
	}

	rep = &report{}
	shardedRecovery(rep, []ShardedRecoveryPoint{{Shards: 2, MeanRecoverySec: 33, WorstGroupAvail: 0.95, AWIPS: 400}})
	const curve = "Sharded recovery — one member of every group crashed"
	if num(t, rep, curve, "2", "mean rec(s)") != 33 || num(t, rep, curve, "2", "worst grp avail") != 0.95 ||
		num(t, rep, curve, "2", "AWIPS") != 400 {
		t.Errorf("recovery curve cells do not carry the point: %+v", rep.blocks)
	}
}
