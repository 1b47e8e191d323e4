package search

// The failure oracles. The sampler only emits quorum-safe schedules —
// severing faults hit at most a minority of one group at a time and every
// window is restored before the run ends — so a run that trips any oracle
// is a bug in the system under test, not in the schedule:
//
//   - fence-violations: a fenced read served below its fence
//     (RunResult.FenceViolations) — a safety violation, full stop.
//   - availability-floor: whole-run availability under the floor despite
//     quorum never being lost — detection or failover wedged hard.
//   - write-wedge: throughput never sustains a fraction of the
//     failure-free baseline after the last fault is restored — the
//     liveness timeout, phrased on the per-second series so a late wedge
//     is not washed out by a healthy start.
//   - txn-atomicity: a cross-shard transaction lost, duplicated or
//     half-applied (RunResult.Txn, armed when the hunt drives
//     transactions) — like a fence violation, a safety breach no fault
//     schedule can excuse.

import (
	"fmt"
	"time"

	"robuststore/internal/exp"
)

const (
	// availFloor is the minimum whole-run availability a quorum-safe
	// schedule must leave standing.
	availFloor = 0.30

	// wedgeFrac of the failure-free baseline AWIPS must be sustained
	// again after the last fault restores.
	wedgeFrac = 0.5

	// wedgeSlackSec (run-axis seconds) after the last restore before
	// recovery is demanded: detection, re-election and reabsorption all
	// take real time.
	wedgeSlackSec = 20.0

	// crashRecoverSec (run-axis seconds) allowed for a crashed replica's
	// autonomous restart and state replay. Recovery replays real log and
	// checkpoint bytes, so unlike event times it does not scale with a
	// shortened measurement interval.
	crashRecoverSec = 90.0
)

// Verdict is the oracles' joint judgement of one run.
type Verdict struct {
	Violations []string
}

// Failed reports whether any oracle tripped.
func (v Verdict) Failed() bool { return len(v.Violations) > 0 }

// lastFaultRunSec returns the run-axis second after which the schedule
// leaves the system fault-free, or -1 when it never does (a window-opening
// event without a matching restore stays open to run end, so there is no
// post-fault period to judge and the wedge oracle must stand down).
func lastFaultRunSec(events []exp.FaultEvent, measure time.Duration) float64 {
	last := 0.0
	for i, ev := range events {
		_, restores := exp.Closes(ev.Op)
		switch {
		case ev.Op == exp.OpCrash:
			if s := exp.RunOffset(measure, ev.AtSec).Seconds() + crashRecoverSec; s > last {
				last = s
			}
		case ev.Op == exp.OpCrashNoRestart:
			// Only a later OpRecover on the same selector brings the
			// victim back; without one the outage is permanent.
			recovered := false
			for _, ev2 := range events[i+1:] {
				if ev2.Op == exp.OpRecover && ev2.Select == ev.Select && ev2.AtSec >= ev.AtSec {
					recovered = true
					if s := exp.RunOffset(measure, ev2.AtSec).Seconds() + crashRecoverSec; s > last {
						last = s
					}
					break
				}
			}
			if !recovered {
				return -1
			}
		case ev.Op == exp.OpRecover || restores:
			if s := exp.RunOffset(measure, ev.AtSec).Seconds(); s > last {
				last = s
			}
		default:
			// A window-opening op: find its restore (same selector, later
			// or simultaneous). The shrinker drops events freely, so an
			// orphaned opener is expected — it just disables the wedge
			// oracle for the schedule.
			restore, ok := exp.RestoreOf(ev.Op)
			if !ok {
				continue
			}
			closed := false
			for _, ev2 := range events[i+1:] {
				if ev2.Op == restore && ev2.Select == ev.Select && ev2.AtSec >= ev.AtSec {
					closed = true
					break
				}
			}
			if !closed {
				return -1
			}
		}
	}
	return last
}

// Evaluate applies the oracles to one finished run. baselineAWIPS is the
// failure-free AWIPS of the same deployment and seed; lastFaultSec is the
// run-axis second the schedule's last fault cleared (from
// lastFaultRunSec; < 0 disables the wedge oracle).
func Evaluate(r exp.RunResult, baselineAWIPS, lastFaultSec float64) Verdict {
	var v Verdict
	if r.FenceViolations != 0 {
		v.Violations = append(v.Violations,
			fmt.Sprintf("fence-violations: %d fenced reads served below their fence", r.FenceViolations))
	}
	if n := r.Txn.Violations(); n > 0 {
		v.Violations = append(v.Violations,
			fmt.Sprintf("txn-atomicity: %d cross-shard transaction(s) lost (%d), duplicated (%d) or half-applied (%d)",
				n, r.Txn.Lost, r.Txn.Duplicated, r.Txn.HalfApplied))
	}
	if r.Availability < availFloor {
		v.Violations = append(v.Violations,
			fmt.Sprintf("availability-floor: %.3f < %.2f under a quorum-safe schedule",
				r.Availability, availFloor))
	}
	if target := wedgeFrac * baselineAWIPS; target > 0 && lastFaultSec >= 0 {
		floor := int(lastFaultSec + wedgeSlackSec)
		if floor+2 < len(r.Series) {
			if at := exp.SeriesRecoversAt(r.Series, floor, target); at < 0 {
				v.Violations = append(v.Violations,
					fmt.Sprintf("write-wedge: throughput never sustains %.0f WIPS (%.0f%% of failure-free) after the last fault clears at t=%.0f s",
						target, 100*wedgeFrac, lastFaultSec))
			}
		}
	}
	return v
}
