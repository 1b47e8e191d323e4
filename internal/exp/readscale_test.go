package exp

import (
	"testing"
	"time"

	"robuststore/internal/rbe"
)

// readerCfg is the shared reader-deployment run for the fault-family
// tests: one group of 3 voters + 2 learner readers at CI size.
func readerCfg(seed uint64, fl Faultload) RunConfig {
	return RunConfig{
		Profile: rbe.Browsing, Servers: 3, Readers: 2, StateMB: 300,
		Fault: fl, Browsers: 300, Measure: 150 * time.Second, Seed: seed,
	}
}

func readStatTotals(r RunResult) (served, fw, ss int64) {
	for _, g := range r.PerGroup {
		served += g.ReadsServed
		fw += g.FenceWaits
		ss += g.StaleServes
	}
	return
}

// TestReadScaleScenario: the scenario's plumbing end to end at CI size —
// points line up with the requested reader counts, readers serve reads,
// and the first point is the scale baseline.
func TestReadScaleScenario(t *testing.T) {
	pts := ReadScale(RunConfig{
		Profile: rbe.Browsing, Servers: 3, StateMB: 300,
		Browsers: 300, Measure: 60 * time.Second, Seed: 1,
	}, []int{0, 2})
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	if pts[0].Readers != 0 || pts[0].ReadNodes != 3 || pts[1].Readers != 2 || pts[1].ReadNodes != 5 {
		t.Fatalf("node accounting off: %+v", pts)
	}
	if pts[0].ReadsPerSec <= 0 || pts[1].ReadsPerSec <= 0 {
		t.Fatalf("no reads served: %+v", pts)
	}
	if pts[0].Scale != 1 {
		t.Fatalf("baseline scale = %v, want 1", pts[0].Scale)
	}
}

// TestReadYourWritesUnderFaultSuite: across the learner fault family —
// lagging learner, learner partitioned from the cluster, a leader crash
// racing in-flight fences — and seeds, no fenced read is ever served
// below its fence, and reads keep flowing.
func TestReadYourWritesUnderFaultSuite(t *testing.T) {
	scenarios := []struct {
		name string
		mk   func() Faultload
	}{
		{"lagging-learner", func() Faultload { return laggingLearner(0, 0.95, 45, 150) }},
		{"learner-partition", func() Faultload { return learnerPartition(0, 45, 150) }},
		{"fence-leader-crash", func() Faultload { return fenceLeaderCrash(0, 60) }},
		{"flaky-link", func() Faultload { return flakyLink(0, 0.4, 45, 150) }},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 2; seed++ {
				fl := sc.mk()
				r := Run(readerCfg(seed, fl))
				if r.FenceViolations != 0 {
					t.Errorf("seed %d: %d fenced reads served below their fence", seed, r.FenceViolations)
				}
				if served, _, _ := readStatTotals(r); served == 0 {
					t.Errorf("seed %d: no reads served under the fault", seed)
				}
			}
		})
	}
}

// TestLearnerPartitionStalenessBound: a reader severed from its group
// (proxy path intact) keeps serving while its applied log freezes.
// Fenced reads landing on it must wait, expire into TooStale past the
// bound, and be re-served by the voters — the staleness accounting
// proves the bound was exercised, not bypassed.
func TestLearnerPartitionStalenessBound(t *testing.T) {
	fl := learnerPartition(0, 45, 150)
	r := Run(readerCfg(3, fl))
	_, fw, ss := readStatTotals(r)
	if fw == 0 {
		t.Error("no fenced read ever waited on the severed reader")
	}
	if ss == 0 {
		t.Error("no fence wait expired into a TooStale fallback")
	}
	if r.Proxy.StaleRedispatched == 0 {
		t.Errorf("TooStale replies were not redispatched: %+v", r.Proxy)
	}
	if r.FenceViolations != 0 {
		t.Errorf("%d fenced reads served below their fence", r.FenceViolations)
	}
}

// TestLearnerFaultloadResolve: the reader selector resolves to the flat
// reader range with group-correct window attribution.
func TestLearnerFaultloadResolve(t *testing.T) {
	cfg := RunConfig{Servers: 3, Shards: 2, Readers: 2, Seed: 1, Profile: rbe.Browsing}
	ev := learnerPartition(1, 45, 150).resolve(cfg)
	if len(ev) != 2 {
		t.Fatalf("events = %d, want 2", len(ev))
	}
	// Reader 0 of group 1 sits past the 6 voters, after group 0's 2
	// readers: flat index 8.
	if len(ev[0].victims) != 1 || ev[0].victims[0] != 8 {
		t.Fatalf("victims = %v, want [8]", ev[0].victims)
	}
	if g := ev[0].groups; len(g) != 1 || g[0] != 1 {
		t.Fatalf("window groups = %v, want [1]", g)
	}
}

// TestFenceLeaderCrashRecovers: the leader crash registers, the watchdog
// brings the member back, and the fence machinery stays clean across the
// election and failover.
func TestFenceLeaderCrashRecovers(t *testing.T) {
	fl := fenceLeaderCrash(0, 60)
	r := Run(readerCfg(4, fl))
	if len(r.CrashSec) != 1 {
		t.Fatalf("crashes = %v, want exactly the leader's", r.CrashSec)
	}
	if len(r.RecoverySec) != 1 {
		t.Fatalf("the crashed leader never recovered: %v", r.RecoverySec)
	}
	if r.FenceViolations != 0 {
		t.Errorf("%d fenced reads served below their fence", r.FenceViolations)
	}
	if r.Autonomy != 0 {
		t.Errorf("autonomy = %v, want 0 (watchdog restart)", r.Autonomy)
	}
}
