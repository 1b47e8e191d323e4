package exp

import (
	"fmt"
	"slices"
	"strconv"

	"robuststore/internal/metrics"
	"robuststore/internal/rbe"
)

// This file lays out each report the paper prints, and those of the
// extensions: the cells of every table and figure and the lines and columns
// that print them (render.go writes them).

// matrixDegrees are the paper's replication degrees for the dependability
// tables; a matrix run at fewer degrees prints fewer rows.
var matrixDegrees = []int{5, 8}

// matrix calls fn on each run of a fault matrix, in the paper's row order.
func matrix(m map[string]RunResult, fn func(servers int, profile rbe.Profile, r RunResult)) {
	for _, servers := range matrixDegrees {
		for _, profile := range rbe.Profiles {
			if r, ok := m[matrixKey(servers, profile)]; ok {
				fn(servers, profile, r)
			}
		}
	}
}

// performability lays out Tables 1 and 3: failure-free vs recovery AWIPS,
// CVs and PV per R/P row.
func performability(rep *report, title string, m map[string]RunResult) {
	rep.title(title)
	rep.tab([]column{{"R/P", "%-6s", ""}, {"ff AWIPS", " %14.1f", ""}, {"CV", " %6.2f", "ff CV"},
		{"rec AWIPS", " %14.2f", ""}, {"CV", " %6.2f", "rec CV"}, {"PV(%)", " %8.1f", ""}})
	matrix(m, func(servers int, profile rbe.Profile, r RunResult) {
		rep.row(matrixKey(servers, profile), r.Perf.FailureFreeAWIPS, r.Perf.FailureFreeCV,
			r.Perf.RecoveryAWIPS, r.Perf.RecoveryCV, r.Perf.PV)
	})
}

// delayedPerformability lays out Table 5 with its two recovery windows.
func delayedPerformability(rep *report, m map[string]RunResult) {
	rep.title("Table 5 — Delayed recovery: performability")
	rep.tab([]column{{"R/P", "%-6s", ""}, {"ff AWIPS", " %12.1f", ""}, {"R1 AWIPS", " %12.2f", ""},
		{"PV(%)", " %8.1f", "R1 PV(%)"}, {"R2 AWIPS", " %12.2f", ""}, {"PV(%)", " %8.1f", "R2 PV(%)"}})
	matrix(m, func(servers int, profile rbe.Profile, r RunResult) {
		rep.row(matrixKey(servers, profile), r.Perf.FailureFreeAWIPS,
			r.Perf.RecoveryAWIPS, r.Perf.PV, r.PerfR2.RecoveryAWIPS, r.PerfR2.PV)
	})
}

// accuracy lays out Tables 2, 4 and 6: a row per replication degree, a
// column per profile.
func accuracy(rep *report, title string, m map[string]RunResult) {
	rep.title(title)
	rep.tab([]column{{"replicas", "%-9d", ""}, {"browsing", " %10.3f", ""},
		{"shopping", " %10.3f", ""}, {"ordering", " %10.3f", ""}})
	matrix(m, func(servers int, profile rbe.Profile, r RunResult) {
		rep.set(strconv.Itoa(servers), profile.String(), r.Accuracy)
	})
}

// dependability lays out the availability/autonomy summary of §5.7.
func dependability(rep *report, title string, m map[string]RunResult) {
	rep.title(title)
	rep.tab([]column{{"R/P", "%-6s", ""}, {"availability", " %13.5f", ""}, {"autonomy", " %9.2f", ""},
		{"faults", " %7d", ""}, {"errors", " %7d", ""}})
	matrix(m, func(servers int, profile rbe.Profile, r RunResult) {
		rep.row(matrixKey(servers, profile), r.Availability, r.Autonomy, r.Faults, r.Errors)
	})
}

// suite lays out each scenario's histogram and per-group report.
func suite(rep *report, rs []RunResult) {
	for _, r := range rs {
		rep.fig(r)
		shardedDependability(rep, r)
		rep.line("", "")
	}
}

// shardedDependability lays out the per-group + aggregate dependability
// report of one sharded run: each group's client-slice throughput,
// accuracy, availability and recovery windows, with the deployment-wide
// row folded from them, then the run's fault windows.
func shardedDependability(rep *report, r RunResult) {
	rep.table = r.Cfg.Fault.Name
	rep.line("", "Sharded dependability — %s (%d group(s) × %d servers, %s)", "faultload", r.Cfg.Fault.Name,
		"groups", len(r.PerGroup), "servers", r.Cfg.Servers, "profile", r.Cfg.Profile.String())
	rep.tab([]column{{"group", "%-10d", ""}, {"AWIPS", " %9.1f", ""}, {"acc(%)", " %8.3f", ""},
		{"avail", " %9.5f", ""}, {"down(s)", " %8.1f", ""}, {"crashes", " %7d", ""}, {"rec", " %5d", ""},
		{"mrec(s)", " %9.1f", ""}, {"part(s)", " %8.1f", ""}, {"slow(s)", " %8.1f", ""}, {"PV(%)", " %7.1f", ""}})
	for _, g := range r.PerGroup {
		rep.row(strconv.Itoa(g.Group), g.AWIPS, g.Accuracy, g.Availability, g.Downtime.Seconds(),
			g.Crashes, g.Recoveries, g.MeanRecoverySec, g.Windows["partition"].Sec,
			g.Windows["slowdisk"].Sec, g.Perf.PV)
	}
	agg := metrics.AggregateGroups(r.PerGroup, rampUp+r.Cfg.Measure+rampDown)
	rep.row("aggregate", agg.AWIPS, r.Accuracy, r.Availability, agg.Downtime.Seconds(),
		agg.Crashes, agg.Recoveries, agg.MeanRecoverySec, agg.Windows["partition"].Sec,
		agg.Windows["slowdisk"].Sec, r.Perf.PV)
	faultWindows(rep, r.FaultWindows)
}

// faultWindows lists each correlated fault window on the x-axis, labelled
// by the first WindowFaults row reporting under its kind.
func faultWindows(rep *report, wins []metrics.FaultWindow) {
	for i, fw := range wins {
		var wf WindowFault
		if k := slices.IndexFunc(WindowFaults, func(f WindowFault) bool { return f.Kind == fw.Kind }); k >= 0 {
			wf = WindowFaults[k]
		}
		format := "  %s window: group %d, t=%.1f s → (never healed)"
		args := []any{"kind", fw.Kind, "group", fw.Group, "from s", fw.FromSec}
		if fw.ToSec >= 0 {
			format = "  %s window: group %d, t=%.1f s → t=%.1f s (%.1f s)"
			args = append(args, "to s", fw.ToSec, "length s", fw.ToSec-fw.FromSec)
		}
		if wf.factor != nil && fw.Factor > 0 {
			verb, v := wf.factor(fw.Factor)
			format, args = format+", "+verb, append(args, "factor", v)
		}
		if wf.Directed && fw.Dir != "" && fw.Dir != "both" {
			format, args = format+", one-way %s", append(args, "direction", fw.Dir)
		}
		rep.line(fmt.Sprintf("window %d", i), format, args...)
	}
}

// txnReport lays out one transaction-faultload run: the atomicity audit
// first (the point of the experiment), then each group's decision outcomes
// and key-blocked time beside its dependability row.
func txnReport(rep *report, r RunResult) {
	a := r.Txn
	rep.table = r.Cfg.Fault.Name
	rep.line("", "Cross-shard transactions — %s (%d group(s) × %d servers, %g txn/s)", "faultload", r.Cfg.Fault.Name,
		"groups", len(r.PerGroup), "servers", r.Cfg.Servers, "txn/s", r.Cfg.TxnRate)
	rep.line("audit", "  issued %d (%d cross-shard): %d committed, %d aborted, %d unresolved", "issued", a.Issued,
		"cross-shard", a.CrossShard, "committed", a.Committed, "aborted", a.Aborted, "unresolved", a.Unresolved)
	if v := a.Violations(); v == 0 {
		rep.line("audit", "  atomicity: %s — nothing lost, duplicated or half-applied", "atomicity", "OK")
	} else {
		rep.line("audit", "  atomicity: %d VIOLATION(S) — %d lost, %d duplicated, %d half-applied",
			"violations", v, "lost", a.Lost, "duplicated", a.Duplicated, "half-applied", a.HalfApplied)
	}
	rep.tab([]column{{"group", "%-10d", ""}, {"AWIPS", " %9.1f", ""}, {"acc(%)", " %8.3f", ""},
		{"avail", " %9.5f", ""}, {"commits", " %8d", ""}, {"aborts", " %8d", ""}, {"blk(s)", " %9.2f", ""}})
	for _, g := range r.PerGroup {
		rep.row(strconv.Itoa(g.Group), g.AWIPS, g.Accuracy, g.Availability, g.TxnCommits, g.TxnAborts, g.TxnBlockedSec)
	}
	agg := metrics.AggregateGroups(r.PerGroup, rampUp+r.Cfg.Measure+rampDown)
	rep.row("aggregate", agg.AWIPS, r.Accuracy, r.Availability, agg.TxnCommits, agg.TxnAborts, agg.TxnBlockedSec)
	faultWindows(rep, r.FaultWindows)
}

// partitionBench lays out the leader-isolation failover summary; a time
// the run never reached prints as words.
func partitionBench(rep *report, p PartitionBenchPoint) {
	rep.title("Partition recovery — leader isolated, no crash")
	sec := func(col, head, tail string, v float64) {
		if v < 0 {
			rep.line("", head+"%s"+tail, col, "never (within the run)")
		} else {
			rep.line("", head+"%.1f s"+tail, col, v)
		}
	}
	sec("detection+failover", "  detection+failover: ", " (throughput back ≥70%% of failure-free)", p.DetectSec)
	sec("post-heal reabsorb", "  post-heal reabsorb: ", "", p.ReabsorbSec)
	rep.line("", "  AWIPS failure-free %.1f, during window %.1f, after heal %.1f",
		"failure-free AWIPS", p.FFAWIPS, "window AWIPS", p.WindowAWIPS, "after-heal AWIPS", p.PostAWIPS)
}

// rebalance lays out the resharding-under-fault report: the migration
// window and moved hash-space share, then the per-group dependability rows
// (the joined group included).
func rebalance(rep *report, r RunResult) {
	rep.table = "Live rebalance"
	rep.line("", "Live rebalance — %d→%d groups × %d servers, %s", "groups", r.Cfg.Shards,
		"final groups", r.FinalShards, "servers", r.Cfg.Servers, "profile", r.Cfg.Profile.String())
	m := r.Migration
	if !m.Happened {
		rep.line("", "  no migration ran")
		return
	}
	rep.line("", "  routing epoch cutover: group %d joined, %d/%d slices moved (%.1f%%)", "new group", m.NewGroup,
		"moved slices", m.MovedSlices, "slices", m.TotalSlices, "moved (%)", 100*float64(m.MovedSlices)/float64(m.TotalSlices))
	rep.line("", "  migration window: %.2f s (t=%.1f s → t=%.1f s); moving-key writes delayed, none failed",
		"window s", m.WindowSec, "start s", m.StartSec, "cutover s", m.CutoverSec)
	if len(r.CrashSec) > 0 {
		rep.line("", "  mid-migration crash: server %d at t=%.1f s (recoveries: %d)",
			"crashed server", r.CrashedServers[0], "crash s", r.CrashSec[0], "recoveries", len(r.RecoverySec))
	}
	rep.line("", "  epoch redirects: %d, requeued writes: %d",
		"epoch redirects", r.Proxy.EpochRedirects, "requeued writes", r.Proxy.Requeued)
	shardedDependability(rep, r)
}

// shardedRecovery lays out the recovery-vs-shard-count curve.
func shardedRecovery(rep *report, pts []ShardedRecoveryPoint) {
	rep.title("Sharded recovery — one member of every group crashed")
	rep.tab([]column{{"shards", "%-8d", ""}, {"mean rec(s)", " %12.1f", ""},
		{"worst grp avail", " %16.5f", ""}, {"AWIPS", " %10.1f", ""}})
	for _, p := range pts {
		rep.row(strconv.Itoa(p.Shards), p.MeanRecoverySec, p.WorstGroupAvail, p.AWIPS)
	}
}

// readScale lays out the read scale-out sweep: read throughput vs
// read-serving node count, with the staleness accounting and the errors
// and quality evictions of the (failure-free) runs beside it.
func readScale(rep *report, pts []ReadScalePoint) {
	rep.title("Read scale-out — learner readers per group, Browsing profile")
	rep.tab([]column{{"readers", "%-8d", ""}, {"read nodes", " %10d", ""}, {"reads/s", " %12.1f", ""},
		{"WIPS", " %8.1f", ""}, {"WIRT(ms)", " %10.1f", ""}, {"fence waits", " %12d", ""},
		{"stale serves", " %12d", ""}, {"errors", " %8d", ""}, {"evicted", " %8d", ""}, {"scale", " %8.2f", ""}})
	for _, p := range pts {
		rep.row(strconv.Itoa(p.Readers), p.ReadNodes, p.ReadsPerSec, p.WIPS, p.WIRTms,
			p.FenceWaits, p.StaleServes, p.Errors, p.Evictions, p.Scale)
	}
}

// checkpointCurve lays out the recovery-time-vs-checkpoint-interval
// trade-off, full vs incremental checkpoints side by side.
func checkpointCurve(rep *report, pts []CheckpointPoint) {
	rep.title("Checkpoint curve — recovery time vs interval, full vs incremental")
	rep.tab([]column{{"interval", "%-10d", ""}, {"mode", " %-12s", ""}, {"rec(s)", " %10.1f", ""},
		{"AWIPS", " %8.1f", ""}, {"ckpts", " %8d", ""}, {"MB/ckpt", " %12.1f", ""}, {"ckpt MB/s", " %12.2f", ""}})
	for _, p := range pts {
		mode := "full"
		if p.Incremental {
			mode = "incremental"
		}
		rep.row(fmt.Sprintf("%d %s", p.IntervalSec, mode), p.IntervalSec, mode, p.RecoverySec,
			p.AWIPS, p.CkptWrites, p.PerCkptMB, p.CkptMBPerSec)
	}
}

// ablation lays out one ablation comparison; runs that crashed a replica
// also report its recovery time, and an ablation that switches Fast Paxos
// off prints each side's ordering counters under it.
func ablation(rep *report, a AblationResult) {
	rep.table = a.Name
	rep.line("", "Ablation %s:", "ablation", a.Name)
	ordering := a.Baseline.Cfg.NoFast != a.Variant.Cfg.NoFast
	for _, side := range []struct {
		note string
		r    RunResult
	}{{a.BaselineNote, a.Baseline}, {a.VariantNote, a.Variant}} {
		format := "  %-16s %8.1f WIPS %8.1f ms"
		args := []any{"side", side.note, "WIPS", side.r.AWIPS, "WIRT ms", side.r.WIRTms}
		switch {
		case len(side.r.RecoveryDur) > 0:
			format, args = format+" %8.1f s recovery", append(args, "recovery s", side.r.RecoveryDur[0])
		case len(side.r.CrashSec) > 0:
			format += "    never recovered"
		}
		rep.line(side.note, format, args...)
		if ordering {
			st := side.r.Paxos
			rep.line(side.note, "    %d decisions, %d collisions, recoveries %d collision / %d hedge / %d gap (%d without phase 1), %d retries, %d catch-ups",
				"decisions", st.Announced, "collisions", st.Collisions, "collision recoveries", st.RecCollision,
				"hedge recoveries", st.RecHedge, "gap recoveries", st.RecGap, "without phase 1", st.RecNoPhase1,
				"retries", st.Retries, "catch-ups", st.CatchUps)
		}
	}
}
