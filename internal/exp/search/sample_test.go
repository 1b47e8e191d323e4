package search

import (
	"math/rand"
	"reflect"
	"testing"

	"robuststore/internal/exp"
)

// TestSampleSchedulesQuorumSafe: across many draws, severing windows
// never overlap within a group, every event lands inside the sample
// window, and schedules are non-empty and deterministic per seed.
func TestSampleSchedulesQuorumSafe(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := sampleSchedule(rand.New(rand.NewSource(seed)), 2, 3, opMix)
		if len(sc.fl.Events) == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		for _, ev := range sc.fl.Events {
			if ev.AtSec < sampleStartSec || ev.AtSec > sampleEndSec {
				t.Fatalf("seed %d: event at t=%.0f outside [%.0f, %.0f]: %+v",
					seed, ev.AtSec, sampleStartSec, sampleEndSec, ev)
			}
		}
		// Severing windows per group must not strictly overlap (crash
		// reservations span the fixed recovery allowance; flap cycles on
		// one selector are sequential within their reservation and share
		// a selector, so compare across selectors only).
		type span struct {
			from, to float64
			sel      exp.Selector
		}
		perGroup := map[int][]span{}
		for i, ev := range sc.fl.Events {
			if !severing(ev.Op) {
				continue
			}
			from := ev.AtSec
			to := from + 180 // crash allowance
			if restore, ok := exp.RestoreOf(ev.Op); ok {
				for _, ev2 := range sc.fl.Events[i+1:] {
					if ev2.Op == restore && ev2.Select == ev.Select && ev2.AtSec >= ev.AtSec {
						to = ev2.AtSec
						break
					}
				}
			}
			perGroup[ev.Select.Group] = append(perGroup[ev.Select.Group], span{from, to, ev.Select})
		}
		for g, spans := range perGroup {
			for i := 0; i < len(spans); i++ {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a.sel == b.sel {
						continue
					}
					if a.from < b.to && b.from < a.to {
						t.Errorf("seed %d group %d: severing spans [%.0f,%.0f] and [%.0f,%.0f] overlap",
							seed, g, a.from, a.to, b.from, b.to)
					}
				}
			}
		}
		// Determinism: the same seed draws the same schedule.
		sc2 := sampleSchedule(rand.New(rand.NewSource(seed)), 2, 3, opMix)
		if !reflect.DeepEqual(sc.fl, sc2.fl) {
			t.Fatalf("seed %d: sampler not deterministic", seed)
		}
	}
}

// TestSampleOpMixCoversGrayOps: the grammar actually emits the new gray
// ops with reasonable frequency.
func TestSampleOpMixCoversGrayOps(t *testing.T) {
	counts := map[exp.FaultOp]int{}
	for seed := int64(0); seed < 400; seed++ {
		sc := sampleSchedule(rand.New(rand.NewSource(seed)), 1, 3, opMix)
		for _, ev := range sc.fl.Events {
			counts[ev.Op]++
		}
	}
	for _, op := range []exp.FaultOp{exp.OpGrayFail, exp.OpLinkDelay, exp.OpPartition, exp.OpCrash} {
		if counts[op] == 0 {
			t.Errorf("op %v never sampled in 400 schedules", op)
		}
	}
}

// TestLastFaultRunSec: restored schedules report the clear time; an
// orphaned opener disables the wedge oracle.
func TestLastFaultRunSec(t *testing.T) {
	measure := 120 * 1e9 // 120 s in time.Duration units
	_ = measure
	restored := []exp.FaultEvent{
		{AtSec: 240, Op: exp.OpGrayFail, Select: exp.Member(0, 0)},
		{AtSec: 330, Op: exp.OpGrayRestore, Select: exp.Member(0, 0)},
	}
	if got := lastFaultRunSec(restored, 120e9); got < 0 {
		t.Fatalf("restored schedule reported as never-clearing")
	} else {
		want := exp.RunOffset(120e9, 330).Seconds()
		if got != want {
			t.Fatalf("lastFaultRunSec = %.1f, want %.1f", got, want)
		}
	}
	orphan := restored[:1]
	if got := lastFaultRunSec(orphan, 120e9); got >= 0 {
		t.Fatalf("orphaned opener should disable the wedge oracle, got %.1f", got)
	}
	crash := []exp.FaultEvent{{AtSec: 100, Op: exp.OpCrash, Select: exp.Member(0, 0)}}
	if got, want := lastFaultRunSec(crash, 120e9), exp.RunOffset(120e9, 100).Seconds()+crashRecoverSec; got != want {
		t.Fatalf("crash clear time = %.1f, want %.1f", got, want)
	}
}
