package metrics

import (
	"testing"
	"testing/quick"
	"time"
)

func t0() time.Time { return time.Unix(0, 0).UTC() }

func TestRecorderBuckets(t *testing.T) {
	r := NewRecorder(t0(), time.Second)
	r.Record(t0().Add(500*time.Millisecond), 10*time.Millisecond, false)
	r.Record(t0().Add(700*time.Millisecond), 30*time.Millisecond, false)
	r.Record(t0().Add(1500*time.Millisecond), 20*time.Millisecond, false)
	r.Record(t0().Add(2500*time.Millisecond), 0, true) // error

	series := r.Series(0, 3)
	want := []float64{2, 1, 0}
	for i := range want {
		if series[i] != want[i] {
			t.Errorf("series[%d] = %v, want %v", i, series[i], want[i])
		}
	}
	if r.Total() != 4 || r.TotalErrors() != 1 {
		t.Errorf("total=%d errors=%d", r.Total(), r.TotalErrors())
	}
	if got := r.MeanLatency(0, 1); got != 0.02 {
		t.Errorf("mean latency bucket 0 = %v, want 0.02", got)
	}
	if got := r.AWIPS(0, 2); got != 1.5 {
		t.Errorf("AWIPS = %v, want 1.5", got)
	}
}

func TestRecorderIgnoresPreStart(t *testing.T) {
	r := NewRecorder(t0().Add(time.Minute), time.Second)
	r.Record(t0(), time.Millisecond, false) // before the origin
	if r.Total() != 0 {
		t.Errorf("pre-start sample counted")
	}
}

func TestAccuracy(t *testing.T) {
	r := NewRecorder(t0(), time.Second)
	if r.Accuracy() != 100 {
		t.Errorf("empty accuracy = %v", r.Accuracy())
	}
	for i := 0; i < 99999; i++ {
		r.Record(t0().Add(time.Duration(i)*time.Millisecond), time.Millisecond, false)
	}
	r.Record(t0(), time.Millisecond, true)
	// 1 error in 100000: the paper's 99.999 %.
	if got := r.Accuracy(); got < 99.9985 || got > 99.9995 {
		t.Errorf("accuracy = %v, want 99.999", got)
	}
}

func TestPerformabilityWindows(t *testing.T) {
	r := NewRecorder(t0(), time.Second)
	// 10 WIPS for 10 s, then 5 WIPS for 5 s (the "recovery"), then 10
	// again.
	emit := func(sec int, n int) {
		for i := 0; i < n; i++ {
			r.Record(t0().Add(time.Duration(sec)*time.Second+time.Duration(i)*time.Millisecond),
				time.Millisecond, false)
		}
	}
	for s := 0; s < 10; s++ {
		emit(s, 10)
	}
	for s := 10; s < 15; s++ {
		emit(s, 5)
	}
	for s := 15; s < 20; s++ {
		emit(s, 10)
	}
	p := r.ComputePerformability(
		[]Window{{From: 0, To: 10}, {From: 15, To: 20}},
		Window{From: 10, To: 15},
	)
	if p.FailureFreeAWIPS != 10 {
		t.Errorf("ff AWIPS = %v", p.FailureFreeAWIPS)
	}
	if p.RecoveryAWIPS != 5 {
		t.Errorf("recovery AWIPS = %v", p.RecoveryAWIPS)
	}
	if p.PV != -50 {
		t.Errorf("PV = %v, want -50", p.PV)
	}
	if p.FailureFreeCV != 0 {
		t.Errorf("ff CV = %v, want 0", p.FailureFreeCV)
	}
}

func TestAvailabilityAndAutonomy(t *testing.T) {
	if got := Availability(0, 10*time.Minute); got != 1 {
		t.Errorf("availability with no downtime = %v", got)
	}
	if got := Availability(time.Minute, 10*time.Minute); got != 0.9 {
		t.Errorf("availability = %v, want 0.9", got)
	}
	if got := Availability(20*time.Minute, 10*time.Minute); got != 0 {
		t.Errorf("availability clamps at 0, got %v", got)
	}
	if got := ComputeAutonomy(0, 2); got != 0 {
		t.Errorf("fully autonomous = %v", got)
	}
	if got := ComputeAutonomy(1, 2); got != 0.5 {
		t.Errorf("autonomy = %v, want 0.5", got)
	}
	if got := ComputeAutonomy(3, 0); got != 0 {
		t.Errorf("no faults autonomy = %v", got)
	}
}

// TestRecorderConservation: every recorded sample lands in exactly one
// bucket; totals always match.
func TestRecorderConservation(t *testing.T) {
	err := quick.Check(func(offsets []uint16, errs []bool) bool {
		r := NewRecorder(t0(), time.Second)
		n := len(offsets)
		for i, off := range offsets {
			isErr := i < len(errs) && errs[i]
			r.Record(t0().Add(time.Duration(off)*time.Millisecond*10),
				time.Millisecond, isErr)
		}
		if r.Total() != n {
			return false
		}
		var inBuckets float64
		for _, v := range r.Series(0, 700) {
			inBuckets += v
		}
		return int(inBuckets)+r.TotalErrors() == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShardedRecorderRoutesByGroup(t *testing.T) {
	r := NewShardedRecorder(t0(), time.Second, 2, func(client int64) int {
		return int(client % 2)
	})
	r.RecordClient(1, t0().Add(500*time.Millisecond), time.Millisecond, false)
	r.RecordClient(2, t0().Add(500*time.Millisecond), time.Millisecond, false)
	r.RecordClient(3, t0().Add(500*time.Millisecond), time.Millisecond, true)

	if r.Aggregate().Total() != 3 || r.Aggregate().TotalErrors() != 1 {
		t.Errorf("aggregate total=%d errors=%d", r.Aggregate().Total(), r.Aggregate().TotalErrors())
	}
	if r.Group(0).Total() != 1 || r.Group(0).TotalErrors() != 0 {
		t.Errorf("group 0 total=%d", r.Group(0).Total())
	}
	if r.Group(1).Total() != 2 || r.Group(1).TotalErrors() != 1 {
		t.Errorf("group 1 total=%d errors=%d", r.Group(1).Total(), r.Group(1).TotalErrors())
	}
	if len(r.groups) != 2 {
		t.Errorf("groups = %d", len(r.groups))
	}
}

func TestShardedRecorderNilGroupOf(t *testing.T) {
	r := NewShardedRecorder(t0(), time.Second, 0, nil)
	r.RecordClient(99, t0(), time.Millisecond, false)
	if len(r.groups) != 1 || r.Group(0).Total() != 1 {
		t.Errorf("nil groupOf must degenerate to one group: groups=%d total=%d",
			len(r.groups), r.Group(0).Total())
	}
}

func TestAggregateGroups(t *testing.T) {
	groups := []GroupReport{
		{Group: 0, AWIPS: 100, Downtime: 30 * time.Second, Crashes: 3, Recoveries: 3, MeanRecoverySec: 20},
		{Group: 1, AWIPS: 110, Downtime: 0, Crashes: 1, Recoveries: 1, MeanRecoverySec: 40},
	}
	agg := AggregateGroups(groups, 5*time.Minute)
	if agg.Downtime != 30*time.Second {
		t.Errorf("aggregate downtime = %v, want the worst group's", agg.Downtime)
	}
	if agg.Availability != 0.9 {
		t.Errorf("aggregate availability = %v, want 0.9", agg.Availability)
	}
	if agg.Crashes != 4 || agg.Recoveries != 4 {
		t.Errorf("crashes/recoveries = %d/%d", agg.Crashes, agg.Recoveries)
	}
	if agg.MeanRecoverySec != 25 {
		t.Errorf("mean recovery = %v, want 25 ((3·20+1·40)/4)", agg.MeanRecoverySec)
	}
	if agg.AWIPS != 210 {
		t.Errorf("aggregate AWIPS = %v, want the sum", agg.AWIPS)
	}
}

func TestAggregateGroupsFaultWindows(t *testing.T) {
	groups := []GroupReport{
		{Group: 0, Windows: map[string]WindowTotal{"partition": {1, 30}, "slowdisk": {1, 50}}},
		{Group: 1, Windows: map[string]WindowTotal{"partition": {2, 90}}},
	}
	agg := AggregateGroups(groups, 5*time.Minute).Windows
	if agg["partition"].Count != 3 || agg["slowdisk"].Count != 1 {
		t.Errorf("window counts = %d/%d, want 3/1", agg["partition"].Count, agg["slowdisk"].Count)
	}
	// Windows of different groups overlap the same wall clock, so the
	// aggregate carries the worst group's exposure, like downtime.
	if agg["partition"].Sec != 90 || agg["slowdisk"].Sec != 50 {
		t.Errorf("window seconds = %v/%v, want worst-group 90/50", agg["partition"].Sec, agg["slowdisk"].Sec)
	}
}

// TestWeightedGroupAccuracyFenceCleanEquivalence: with both read-path
// counters at zero, the weighted accuracy is bit-for-bit the plain
// error-ratio accuracy — fence-clean runs must not move by even an ULP
// when the weighting is introduced.
func TestWeightedGroupAccuracyFenceCleanEquivalence(t *testing.T) {
	for total := 0; total <= 2000; total += 7 {
		for _, errs := range []int{0, 1, total / 3, total} {
			if errs > total {
				continue
			}
			plain := 100.0
			if total > 0 {
				plain = 100 * float64(total-errs) / float64(total)
			}
			if got := WeightedGroupAccuracy(total, errs, 0, 0); got != plain {
				t.Fatalf("WeightedGroupAccuracy(%d, %d, 0, 0) = %v, want plain %v",
					total, errs, got, plain)
			}
		}
	}
}

// TestWeightedGroupAccuracyWeights: fence waits cost a tenth of an error,
// stale serves half, and the weighted mass clamps at the request count.
func TestWeightedGroupAccuracyWeights(t *testing.T) {
	if got := WeightedGroupAccuracy(1000, 0, 100, 0); got != 99 {
		t.Errorf("100 fence waits over 1000 requests = %v, want 99", got)
	}
	if got := WeightedGroupAccuracy(1000, 0, 0, 100); got != 95 {
		t.Errorf("100 stale serves over 1000 requests = %v, want 95", got)
	}
	if got := WeightedGroupAccuracy(10, 5, 1000, 1000); got != 0 {
		t.Errorf("overweighted mass should clamp to 0%%, got %v", got)
	}
	if got := WeightedGroupAccuracy(0, 0, 50, 50); got != 100 {
		t.Errorf("no requests is 100%% accurate, got %v", got)
	}
}
