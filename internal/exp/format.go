package exp

import (
	"fmt"
	"io"
	"strings"

	"robuststore/internal/metrics"
	"robuststore/internal/rbe"
	"robuststore/internal/stats"
)

// This file renders experiment results as the rows the paper prints —
// one formatter per table and figure.

// scaleRow renders one labelled series of a replication-degree sweep.
func scaleRow(w io.Writer, label, format string, pts []ScalePoint, cell func(ScalePoint) any) {
	fmt.Fprintf(w, "%-10s", label)
	for _, pt := range pts {
		fmt.Fprintf(w, format, cell(pt))
	}
	fmt.Fprintln(w)
}

// printScale renders the rows Figures 3 and 4 share — WIPS and WIRT per
// replication degree, and the errors and quality evictions a failure-free
// run should not have — with extra closing each profile's block.
func printScale(w io.Writer, title string, r ScaleResult, extra func(rbe.Profile, []ScalePoint)) {
	fmt.Fprintln(w, title)
	scaleRow(w, "replicas", "%8d", r.Points[rbe.Browsing], func(pt ScalePoint) any { return pt.Servers })
	for _, profile := range rbe.Profiles {
		pts := r.Points[profile]
		scaleRow(w, profile.String()+" WIPS", "%8.0f", pts, func(pt ScalePoint) any { return pt.WIPS })
		scaleRow(w, "  WIRT ms", "%8.0f", pts, func(pt ScalePoint) any { return pt.WIRTms })
		scaleRow(w, "  errors", "%8d", pts, func(pt ScalePoint) any { return pt.Errors })
		scaleRow(w, "  evicted", "%8d", pts, func(pt ScalePoint) any { return pt.Evictions })
		extra(profile, pts)
	}
}

// PrintSpeedup renders Figure 3 as aligned series per replication degree
// plus the S_k values the text quotes.
func PrintSpeedup(w io.Writer, r ScaleResult) {
	printScale(w, "Figure 3 — Speedup (saturation, 500 MB state)", r, func(_ rbe.Profile, pts []ScalePoint) {
		scaleRow(w, "  S_k", "%8.2f", pts, func(pt ScalePoint) any { return pt.Speedup })
	})
}

// PrintScaleup renders Figure 4: WIPS/WIRT at 1000 offered WIPS plus the
// regression slope and the WIPS-WIRT r² of §5.3.
func PrintScaleup(w io.Writer, r ScaleResult) {
	printScale(w, "Figure 4 — Scaleup at 1000 WIPS (300 MB state)", r, func(profile rbe.Profile, _ []ScalePoint) {
		fit := r.Fit[profile]
		fmt.Fprintf(w, "  fit: WIPS = %.2f·k %+.1f   r²(WIPS,WIRT) = %.4f\n",
			fit.Slope, fit.Intercept, r.Correlation[profile])
	})
}

// PrintPerformability renders Tables 1 and 3: failure-free vs recovery
// AWIPS, CVs and PV per R/P row.
func PrintPerformability(w io.Writer, title string, m map[string]RunResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %14s %6s %14s %6s %8s\n",
		"R/P", "ff AWIPS", "CV", "rec AWIPS", "CV", "PV(%)")
	for _, key := range matrixOrder() {
		r, ok := m[key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-6s %14.1f %6.2f %14.2f %6.2f %8.1f\n",
			key, r.Perf.FailureFreeAWIPS, r.Perf.FailureFreeCV,
			r.Perf.RecoveryAWIPS, r.Perf.RecoveryCV, r.Perf.PV)
	}
}

// PrintDelayedPerformability renders Table 5 with its two recovery
// windows.
func PrintDelayedPerformability(w io.Writer, m map[string]RunResult) {
	fmt.Fprintln(w, "Table 5 — Delayed recovery: performability")
	fmt.Fprintf(w, "%-6s %12s %12s %8s %12s %8s\n",
		"R/P", "ff AWIPS", "R1 AWIPS", "PV(%)", "R2 AWIPS", "PV(%)")
	for _, key := range matrixOrder() {
		r, ok := m[key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-6s %12.1f %12.2f %8.1f %12.2f %8.1f\n",
			key, r.Perf.FailureFreeAWIPS,
			r.Perf.RecoveryAWIPS, r.Perf.PV,
			r.PerfR2.RecoveryAWIPS, r.PerfR2.PV)
	}
}

// PrintAccuracy renders Tables 2, 4 and 6.
func PrintAccuracy(w io.Writer, title string, m map[string]RunResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-9s %10s %10s %10s\n", "replicas", "browsing", "shopping", "ordering")
	for _, servers := range matrixDegrees {
		row, ran := fmt.Sprintf("%-9d", servers), false
		for _, profile := range rbe.Profiles {
			r, ok := m[matrixKey(servers, profile)]
			ran = ran || ok
			row += fmt.Sprintf(" %10.3f", r.Accuracy)
		}
		if ran {
			fmt.Fprintln(w, row)
		}
	}
}

// PrintDependability renders the availability/autonomy summary of §5.7.
func PrintDependability(w io.Writer, title string, m map[string]RunResult) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %13s %9s %7s %7s\n", "R/P", "availability", "autonomy", "faults", "errors")
	for _, key := range matrixOrder() {
		r, ok := m[key]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-6s %13.5f %9.2f %7d %7d\n",
			key, r.Availability, r.Autonomy, r.Faults, r.Errors)
	}
}

// PrintHistogram renders a Figures 5/7/8 panel: the per-second WIPS
// series of one run as a text sparkline with crash/recovery markers,
// binned to fit a terminal.
func PrintHistogram(w io.Writer, r RunResult) {
	fmt.Fprintf(w, "WIPS histogram — %s, %d replicas, %s (c=crash, r=recovered)\n",
		r.Cfg.Profile, r.Cfg.Servers, r.Cfg.Fault.Name)
	const cols = 120
	n := len(r.Series)
	if n == 0 {
		return
	}
	bin := (n + cols - 1) / cols
	// Scale to the 99th percentile so one outlier bucket does not
	// flatten the plot.
	peak := stats.Percentile(r.Series, 99)
	if peak < 1 {
		peak = 1
	}
	const rows = 12
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", (n+bin-1)/bin))
	}
	for c := 0; c*bin < n; c++ {
		var sum float64
		var cnt int
		for i := c * bin; i < n && i < (c+1)*bin; i++ {
			sum += r.Series[i]
			cnt++
		}
		h := int(sum / float64(cnt) / peak * float64(rows))
		if h >= rows {
			h = rows - 1
		}
		for y := 0; y <= h; y++ {
			grid[rows-1-y][c] = '#'
		}
	}
	for _, row := range grid {
		fmt.Fprintf(w, "|%s\n", string(row))
	}
	marks := []byte(strings.Repeat("-", (n+bin-1)/bin))
	for _, cs := range r.CrashSec {
		if i := int(cs) / bin; i >= 0 && i < len(marks) {
			marks[i] = 'c'
		}
	}
	for _, rs := range r.RecoverySec {
		if i := int(rs) / bin; i >= 0 && i < len(marks) {
			marks[i] = 'r'
		}
	}
	fmt.Fprintf(w, "+%s  (0..%ds, peak %.0f WIPS)\n", string(marks), n, peak)
}

// PrintRecoveryTimes renders Figure 6 as a table: recovery seconds per
// (replicas, profile, state size), rows in the order the sweep ran them.
func PrintRecoveryTimes(w io.Writer, pts []RecoveryTimePoint) {
	fmt.Fprintln(w, "Figure 6 — One failure: recovery times (s)")
	fmt.Fprintf(w, "%-9s %-10s %8s %8s %8s\n", "replicas", "profile", "300MB", "500MB", "700MB")
	type key struct {
		servers int
		profile rbe.Profile
	}
	rows := map[key]map[int]float64{}
	var order []key
	for _, p := range pts {
		k := key{p.Servers, p.Profile}
		if rows[k] == nil {
			rows[k] = map[int]float64{}
			order = append(order, k)
		}
		rows[k][p.StateMB] = p.RecoverySec
	}
	for _, k := range order {
		fmt.Fprintf(w, "%-9d %-10s %8.0f %8.0f %8.0f\n",
			k.servers, k.profile, rows[k][300], rows[k][500], rows[k][700])
	}
}

// PrintShardedDependability renders the per-group + aggregate
// dependability report of one sharded run: each group's client-slice
// throughput, accuracy, availability and recovery windows, with the
// deployment-wide row folded from them.
func PrintShardedDependability(w io.Writer, r RunResult) {
	name := r.Cfg.Fault.Name
	total := rampUp + r.Cfg.Measure + rampDown
	fmt.Fprintf(w, "Sharded dependability — %s (%d group(s) × %d servers, %s)\n",
		name, len(r.PerGroup), r.Cfg.Servers, r.Cfg.Profile)
	fmt.Fprintf(w, "%-10s %9s %8s %9s %8s %7s %5s %9s %8s %8s %7s\n",
		"group", "AWIPS", "acc(%)", "avail", "down(s)", "crashes", "rec", "mrec(s)",
		"part(s)", "slow(s)", "PV(%)")
	for _, g := range r.PerGroup {
		fmt.Fprintf(w, "%-10d %9.1f %8.3f %9.5f %8.1f %7d %5d %9.1f %8.1f %8.1f %7.1f\n",
			g.Group, g.AWIPS, g.Accuracy, g.Availability, g.Downtime.Seconds(),
			g.Crashes, g.Recoveries, g.MeanRecoverySec, g.Windows["partition"].Sec,
			g.Windows["slowdisk"].Sec, g.Perf.PV)
	}
	agg := metrics.AggregateGroups(r.PerGroup, total)
	fmt.Fprintf(w, "%-10s %9.1f %8.3f %9.5f %8.1f %7d %5d %9.1f %8.1f %8.1f %7.1f\n",
		"aggregate", agg.AWIPS, r.Accuracy, r.Availability, agg.Downtime.Seconds(),
		agg.Crashes, agg.Recoveries, agg.MeanRecoverySec, agg.Windows["partition"].Sec,
		agg.Windows["slowdisk"].Sec, r.Perf.PV)
	printFaultWindows(w, r.FaultWindows)
}

// labelledAs returns the first table row reporting under kind: the one
// whose label and direction word that kind's windows.
func labelledAs(kind string) WindowFault {
	for _, wf := range WindowFaults {
		if wf.Kind == kind {
			return wf
		}
	}
	return WindowFault{}
}

// printFaultWindows lists each correlated fault window on the x-axis.
func printFaultWindows(w io.Writer, wins []metrics.FaultWindow) {
	for _, fw := range wins {
		wf, extra := labelledAs(fw.Kind), ""
		if wf.label != nil && fw.Factor > 0 {
			extra = ", " + wf.label(fw.Factor)
		}
		if wf.Directed && fw.Dir != "" && fw.Dir != "both" {
			extra += ", one-way " + fw.Dir
		}
		if fw.ToSec < 0 {
			fmt.Fprintf(w, "  %s window: group %d, t=%.1f s → (never healed)%s\n",
				fw.Kind, fw.Group, fw.FromSec, extra)
			continue
		}
		fmt.Fprintf(w, "  %s window: group %d, t=%.1f s → t=%.1f s (%.1f s)%s\n",
			fw.Kind, fw.Group, fw.FromSec, fw.ToSec, fw.ToSec-fw.FromSec, extra)
	}
}

// PrintTxnReport renders one transaction-faultload run: the atomicity
// audit first (the point of the experiment), then each group's decision
// outcomes and key-blocked time beside its dependability row.
func PrintTxnReport(w io.Writer, r RunResult) {
	name := r.Cfg.Fault.Name
	a := r.Txn
	fmt.Fprintf(w, "Cross-shard transactions — %s (%d group(s) × %d servers, %g txn/s)\n",
		name, len(r.PerGroup), r.Cfg.Servers, r.Cfg.TxnRate)
	fmt.Fprintf(w, "  issued %d (%d cross-shard): %d committed, %d aborted, %d unresolved\n",
		a.Issued, a.CrossShard, a.Committed, a.Aborted, a.Unresolved)
	if v := a.Violations(); v == 0 {
		fmt.Fprintf(w, "  atomicity: OK — nothing lost, duplicated or half-applied\n")
	} else {
		fmt.Fprintf(w, "  atomicity: %d VIOLATION(S) — %d lost, %d duplicated, %d half-applied\n",
			v, a.Lost, a.Duplicated, a.HalfApplied)
	}
	fmt.Fprintf(w, "%-10s %9s %8s %9s %8s %8s %9s\n",
		"group", "AWIPS", "acc(%)", "avail", "commits", "aborts", "blk(s)")
	for _, g := range r.PerGroup {
		fmt.Fprintf(w, "%-10d %9.1f %8.3f %9.5f %8d %8d %9.2f\n",
			g.Group, g.AWIPS, g.Accuracy, g.Availability,
			g.TxnCommits, g.TxnAborts, g.TxnBlockedSec)
	}
	total := rampUp + r.Cfg.Measure + rampDown
	agg := metrics.AggregateGroups(r.PerGroup, total)
	fmt.Fprintf(w, "%-10s %9.1f %8.3f %9.5f %8d %8d %9.2f\n",
		"aggregate", agg.AWIPS, r.Accuracy, r.Availability,
		agg.TxnCommits, agg.TxnAborts, agg.TxnBlockedSec)
	printFaultWindows(w, r.FaultWindows)
}

// PrintPartitionBench renders the leader-isolation failover summary.
func PrintPartitionBench(w io.Writer, p PartitionBenchPoint) {
	sec := func(v float64) string {
		if v < 0 {
			return "never (within the run)"
		}
		return fmt.Sprintf("%.1f s", v)
	}
	fmt.Fprintln(w, "Partition recovery — leader isolated, no crash")
	fmt.Fprintf(w, "  detection+failover: %s (throughput back ≥70%% of failure-free)\n", sec(p.DetectSec))
	fmt.Fprintf(w, "  post-heal reabsorb: %s\n", sec(p.ReabsorbSec))
	fmt.Fprintf(w, "  AWIPS failure-free %.1f, during window %.1f, after heal %.1f\n",
		p.FFAWIPS, p.WindowAWIPS, p.PostAWIPS)
}

// PrintRebalance renders the resharding-under-fault report: the
// migration window and moved hash-space share, then the per-group
// dependability rows (the joined group included).
func PrintRebalance(w io.Writer, r RunResult) {
	fmt.Fprintf(w, "Live rebalance — %d→%d groups × %d servers, %s\n",
		r.Cfg.Shards, r.FinalShards, r.Cfg.Servers, r.Cfg.Profile)
	m := r.Migration
	if !m.Happened {
		fmt.Fprintln(w, "  no migration ran")
		return
	}
	fmt.Fprintf(w, "  routing epoch cutover: group %d joined, %d/%d slices moved (%.1f%%)\n",
		m.NewGroup, m.MovedSlices, m.TotalSlices,
		100*float64(m.MovedSlices)/float64(m.TotalSlices))
	fmt.Fprintf(w, "  migration window: %.2f s (t=%.1f s → t=%.1f s); moving-key writes delayed, none failed\n",
		m.WindowSec, m.StartSec, m.CutoverSec)
	if len(r.CrashSec) > 0 {
		fmt.Fprintf(w, "  mid-migration crash: server %d at t=%.1f s (recoveries: %d)\n",
			r.CrashedServers[0], r.CrashSec[0], len(r.RecoverySec))
	}
	fmt.Fprintf(w, "  epoch redirects: %d, requeued writes: %d\n",
		r.Proxy.EpochRedirects, r.Proxy.Requeued)
	PrintShardedDependability(w, r)
}

// PrintShardedRecovery renders the recovery-vs-shard-count curve.
func PrintShardedRecovery(w io.Writer, pts []ShardedRecoveryPoint) {
	fmt.Fprintln(w, "Sharded recovery — one member of every group crashed")
	fmt.Fprintf(w, "%-8s %12s %16s %10s\n", "shards", "mean rec(s)", "worst grp avail", "AWIPS")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8d %12.1f %16.5f %10.1f\n",
			p.Shards, p.MeanRecoverySec, p.WorstGroupAvail, p.AWIPS)
	}
}

// PrintReadScale renders the read scale-out sweep: read throughput vs
// read-serving node count, with the staleness accounting and the errors
// and quality evictions of the (failure-free) runs beside it.
func PrintReadScale(w io.Writer, pts []ReadScalePoint) {
	fmt.Fprintln(w, "Read scale-out — learner readers per group, Browsing profile")
	fmt.Fprintf(w, "%-8s %10s %12s %8s %10s %12s %12s %8s %8s %8s\n",
		"readers", "read nodes", "reads/s", "WIPS", "WIRT(ms)", "fence waits", "stale serves", "errors", "evicted", "scale")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8d %10d %12.1f %8.1f %10.1f %12d %12d %8d %8d %8.2f\n",
			p.Readers, p.ReadNodes, p.ReadsPerSec, p.WIPS, p.WIRTms,
			p.FenceWaits, p.StaleServes, p.Errors, p.Evictions, p.Scale)
	}
}

// PrintCheckpointCurve renders the recovery-time-vs-checkpoint-interval
// trade-off, full vs incremental checkpoints side by side.
func PrintCheckpointCurve(w io.Writer, pts []CheckpointPoint) {
	fmt.Fprintln(w, "Checkpoint curve — recovery time vs interval, full vs incremental")
	fmt.Fprintf(w, "%-10s %-12s %10s %8s %8s %12s %12s\n",
		"interval", "mode", "rec(s)", "AWIPS", "ckpts", "MB/ckpt", "ckpt MB/s")
	for _, p := range pts {
		mode := "full"
		if p.Incremental {
			mode = "incremental"
		}
		fmt.Fprintf(w, "%-10d %-12s %10.1f %8.1f %8d %12.1f %12.2f\n",
			p.IntervalSec, mode, p.RecoverySec, p.AWIPS, p.CkptWrites,
			p.PerCkptMB, p.CkptMBPerSec)
	}
}

// PrintAblation renders one ablation comparison; runs that crashed a
// replica also report its recovery time, and an ablation that switches Fast
// Paxos off prints each side's ordering counters under it.
func PrintAblation(w io.Writer, a AblationResult) {
	fmt.Fprintf(w, "Ablation %s:\n", a.Name)
	ordering := a.Baseline.Cfg.NoFast != a.Variant.Cfg.NoFast
	for _, side := range []struct {
		note string
		r    RunResult
	}{{a.BaselineNote, a.Baseline}, {a.VariantNote, a.Variant}} {
		fmt.Fprintf(w, "  %-16s %8.1f WIPS %8.1f ms", side.note, side.r.AWIPS, side.r.WIRTms)
		switch {
		case len(side.r.RecoveryDur) > 0:
			fmt.Fprintf(w, " %8.1f s recovery", side.r.RecoveryDur[0])
		case len(side.r.CrashSec) > 0:
			fmt.Fprint(w, "    never recovered")
		}
		fmt.Fprintln(w)
		if ordering {
			st := side.r.Paxos
			fmt.Fprintf(w, "    %d decisions, %d collisions, recoveries %d collision / %d hedge / %d gap (%d without phase 1), %d retries, %d catch-ups\n",
				st.Announced, st.Collisions, st.RecCollision, st.RecHedge, st.RecGap, st.RecNoPhase1, st.Retries, st.CatchUps)
		}
	}
}

// matrixDegrees are the paper's replication degrees for the dependability
// tables; a matrix run at fewer degrees prints fewer rows.
var matrixDegrees = []int{5, 8}

// matrixOrder returns the paper's row order for the dependability tables.
func matrixOrder() []string {
	var keys []string
	for _, servers := range matrixDegrees {
		for _, profile := range rbe.Profiles {
			keys = append(keys, matrixKey(servers, profile))
		}
	}
	return keys
}
