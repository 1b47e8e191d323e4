package search

// The schedule sampler: random fault schedules drawn from the faultload
// DSL grammar — weighted op mix, random selectors, times and factors —
// quorum-safe by construction so the oracles stay sound (see oracle.go).

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"robuststore/internal/env"
	"robuststore/internal/exp"
)

// Sampler event times live on the paper's x-axis. Injections land in
// [sampleStartSec, sampleInjectEndSec]; every window restores by
// sampleEndSec, leaving a post-fault tail for the wedge oracle even under
// the shortened hunt measurement interval.
const (
	sampleStartSec     = 60.0
	sampleInjectEndSec = 260.0
	sampleEndSec       = 420.0

	// crashInjectEndSec caps crash times harder than window faults:
	// recovery replay takes real (unscaled) time, and the wedge oracle
	// needs the replica back with series left to judge.
	crashInjectEndSec = 140.0
)

// opMix is the grammar's op mix: each op's weight and the degradation
// factors it draws from (none for an op that takes no factor). Gray faults
// weigh as much as the classic severing faults: they are the reason the
// hunt exists. What else the sampler knows of a window op — its closer,
// whether it severs, whether it takes a direction — is its row of
// exp.WindowFaults.
var opMix = []mixEntry{
	{exp.OpCrash, 2, nil},
	{exp.OpPartition, 3, nil},
	{exp.OpDiskSlow, 2, []float64{4, 8, 16}},
	{exp.OpLinkLoss, 2, []float64{0.2, 0.3, 0.5}},
	{exp.OpGroupIsolate, 1, nil},
	// Below 1: fast-error rate; at/above: service slow-walk.
	{exp.OpGrayFail, 3, []float64{0.3, 0.5, 0.8, 10, 20, 40}},
	{exp.OpLinkDelay, 2, []float64{20, 50, 100}},
}

// mixEntry is one op of the mix: its weight and the factors it draws from.
type mixEntry struct {
	op      exp.FaultOp
	w       int
	factors []float64
}

// mixOf is the op mix narrowed to ops, at their weights; the whole mix when
// ops is empty.
func mixOf(ops []exp.FaultOp) []mixEntry {
	if len(ops) == 0 {
		return opMix
	}
	var mix []mixEntry
	for _, e := range opMix {
		if slices.Contains(ops, e.op) {
			mix = append(mix, e)
		}
	}
	return mix
}

// severing reports whether the op denies its victims' service outright
// (crash, partition, group isolation) — the class the sampler must keep
// to a minority per group with non-overlapping windows.
func severing(op exp.FaultOp) bool {
	wf, _ := exp.Opens(op)
	return wf.Severs || op == exp.OpCrash || op == exp.OpCrashNoRestart
}

// sampledSchedule is one draw from the grammar.
type sampledSchedule struct {
	fl exp.Faultload
}

// pickOp draws from a weighted op mix, returning the op and the factors it
// draws from.
func pickOp(rng *rand.Rand, mix []mixEntry) (exp.FaultOp, []float64) {
	total := 0
	for _, e := range mix {
		total += e.w
	}
	n := rng.Intn(total)
	for _, e := range mix {
		if n < e.w {
			return e.op, e.factors
		}
		n -= e.w
	}
	return mix[0].op, nil
}

// pickSelector draws a quorum-preserving victim selector within group g:
// a single rotation member, the late-bound leader, or the largest safe
// minority.
func pickSelector(rng *rand.Rand, g int) exp.Selector {
	switch rng.Intn(5) {
	case 0, 1:
		return exp.Member(g, rng.Intn(2))
	case 2, 3:
		return exp.Leader(g)
	default:
		return exp.Minority(g)
	}
}

// sampleSchedule draws one random fault schedule for a shards×servers
// deployment from the ops of mix (opMix, or a hunt's narrowing of it).
// Quorum safety: severing windows never overlap within a group (and each
// hits at most a minority), so any oracle violation is the system's fault.
// Non-severing (gray) faults overlap freely.
func sampleSchedule(rng *rand.Rand, shards, servers int, mix []mixEntry) sampledSchedule {
	type span struct{ from, to float64 }
	severSpans := map[int][]span{}
	overlaps := func(g int, from, to float64) bool {
		for _, s := range severSpans[g] {
			if from < s.to && s.from < to {
				return true
			}
		}
		return false
	}

	fl := exp.Faultload{Name: fmt.Sprintf("hunt-%08x", rng.Uint32())}

	// Compound 2PC-targeted draw (sharded deployments, ~1 in 4
	// schedules): two correlated events anchored inside one
	// prepare→commit-sized window, aimed across a coordinator group and a
	// participant group — the schedules most likely to strand a prepared
	// branch or race a presumed abort against a real commit. Still
	// quorum-safe: each group loses at most one member / a minority, and
	// both windows register in severSpans so later draws never overlap
	// them.
	if shards > 1 && rng.Intn(4) == 0 {
		cg := rng.Intn(shards)
		pg := (cg + 1 + rng.Intn(shards-1)) % shards
		at := sampleStartSec + rng.Float64()*(crashInjectEndSec-sampleStartSec)
		at = float64(int(at))
		if rng.Intn(2) == 0 {
			// Coordinator leader dies while the participant group's
			// leader is partitioned away: prepares land on a group
			// mid-election, the decision's home loses its writer.
			to := float64(int(at + 20 + rng.Float64()*60))
			severSpans[cg] = append(severSpans[cg], span{at, at + 180})
			severSpans[pg] = append(severSpans[pg], span{at - 4, to})
			fl.Events = append(fl.Events,
				exp.FaultEvent{AtSec: at - 4, Op: exp.OpPartition, Select: exp.Leader(pg)},
				exp.FaultEvent{AtSec: at, Op: exp.OpCrash, Select: exp.Leader(cg)},
				exp.FaultEvent{AtSec: to, Op: exp.OpHeal, Select: exp.Leader(pg)},
			)
		} else {
			// Double leader crash one second apart: both ends of the
			// transaction lose their proposer inside the same window.
			severSpans[cg] = append(severSpans[cg], span{at, at + 180})
			severSpans[pg] = append(severSpans[pg], span{at + 1, at + 181})
			fl.Events = append(fl.Events,
				exp.FaultEvent{AtSec: at, Op: exp.OpCrash, Select: exp.Leader(cg)},
				exp.FaultEvent{AtSec: at + 1, Op: exp.OpCrash, Select: exp.Leader(pg)},
			)
		}
	}

	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		g := rng.Intn(shards)
		op, factors := pickOp(rng, mix)

		if op == exp.OpCrash {
			at := sampleStartSec + rng.Float64()*(crashInjectEndSec-sampleStartSec)
			at = float64(int(at)) // whole seconds keep keys and pins tidy
			// The watchdog restarts the victim; budget its recovery like
			// a severing window so nothing else severs the group
			// meanwhile.
			if overlaps(g, at, at+180) {
				continue
			}
			severSpans[g] = append(severSpans[g], span{at, at + 180})
			fl.Events = append(fl.Events, exp.FaultEvent{
				AtSec: at, Op: exp.OpCrash, Select: exp.Member(g, rng.Intn(2)),
			})
			continue
		}

		sel := pickSelector(rng, g)
		from := sampleStartSec + rng.Float64()*(sampleInjectEndSec-sampleStartSec)
		width := 40 + rng.Float64()*110
		from = float64(int(from))
		to := float64(int(from + width))
		if to > sampleEndSec {
			to = sampleEndSec
		}
		if severing(op) {
			if overlaps(g, from, to) {
				continue // keep the draw count; a thinner schedule is fine
			}
			severSpans[g] = append(severSpans[g], span{from, to})
		}
		// Drawn in this order — factor, then direction, each only by an op
		// that takes one — which the pinned seeds depend on.
		wf, _ := exp.Opens(op)
		factor, dir := 0.0, env.LinkBothWays
		if len(factors) > 0 {
			factor = factors[rng.Intn(len(factors))]
		}
		if wf.Directed && rng.Intn(4) == 0 {
			dir = env.LinkOutboundOnly // mostly symmetric, sometimes the nastier one-way loss
		}

		// A severing window occasionally flaps instead of holding open —
		// same span, same selector, strictly harder.
		if op == exp.OpPartition && rng.Intn(4) == 0 {
			period := []float64{40, 60}[rng.Intn(2)]
			duty := []float64{0.3, 0.5}[rng.Intn(2)]
			flap := exp.Flap(op, sel, from, to, period, duty, 0)
			fl.Events = append(fl.Events, flap.Events...)
			continue
		}

		fl.Events = append(fl.Events, exp.FaultEvent{
			AtSec: from, Op: op, Select: sel, Dir: dir, Factor: factor,
		})
		fl.Events = append(fl.Events, exp.FaultEvent{
			AtSec: to, Op: wf.Close, Select: sel,
		})
	}

	// Chronological order reads better in pins and logs; the run engine
	// schedules by time either way.
	sort.SliceStable(fl.Events, func(i, j int) bool {
		return fl.Events[i].AtSec < fl.Events[j].AtSec
	})
	if len(fl.Events) == 0 {
		// Every draw collided; fall back to the simplest interesting
		// schedule rather than burning a trial on a no-op.
		fl.Events = []exp.FaultEvent{
			{AtSec: 120, Op: exp.OpGrayFail, Select: exp.Member(0, 0)},
			{AtSec: 240, Op: exp.OpGrayRestore, Select: exp.Member(0, 0)},
		}
	}
	return sampledSchedule{fl: fl}
}
