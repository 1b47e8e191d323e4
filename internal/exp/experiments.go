package exp

import (
	"strconv"

	"robuststore/internal/rbe"
	"robuststore/internal/stats"
)

// This file defines the experiment suites of §5, each returning the data
// behind one figure or table of the paper or, where nothing but the report
// reads that data (the scale sweep, the recovery times), laying out the
// report's cells as it runs (render.go). A suite is a function of one
// base RunConfig — the deployment, load, interval and seed every run of it
// shares — and the values it sweeps; it sets the fields it sweeps and, where
// its report names one, the faultload.

// scale runs base at every replication degree under the three profiles —
// the failure-free sweep behind Figure 3 (a population that saturates the
// biggest deployment) and Figure 4 (the fixed 1000 WIPS offered load) — and
// lays out WIPS and WIRT per degree, with the errors and quality evictions
// a failure-free run should not have, closing each profile's block with its
// S_k = π_k / π_first (Figure 3) or, fit set, the least-squares regression
// of WIPS on k and the WIPS–WIRT r² the paper reports (Figure 4, §5.3).
func scale(rep *report, title string, base RunConfig, degrees []int, fit bool) {
	rep.title(title)
	series := func(verb, row, label string, v func(i int) any) {
		format, args := "%-10s", []any{"label", label}
		for i, k := range degrees {
			format += verb
			args = append(args, strconv.Itoa(k), v(i))
		}
		rep.line(row, format, args...)
	}
	series("%8d", "replicas", "replicas", func(i int) any { return degrees[i] })
	for _, profile := range rbe.Profiles {
		var runs []RunResult
		var ks, wips, wirt []float64
		for _, k := range degrees {
			base.Profile, base.Servers = profile, k
			r := Run(base)
			runs, ks = append(runs, r), append(ks, float64(k))
			wips, wirt = append(wips, r.AWIPS), append(wirt, r.WIRTms)
		}
		p := profile.String()
		series("%8.0f", p+" WIPS", p+" WIPS", func(i int) any { return wips[i] })
		series("%8.0f", p+" WIRT ms", "  WIRT ms", func(i int) any { return wirt[i] })
		series("%8d", p+" errors", "  errors", func(i int) any { return runs[i].Errors })
		series("%8d", p+" evicted", "  evicted", func(i int) any { return runs[i].Proxy.QualityEvictions })
		if !fit {
			series("%8.2f", p+" S_k", "  S_k", func(i int) any { return wips[i] / wips[0] })
			continue
		}
		f, corr := stats.LinearFit(ks, wips), stats.Correlation(wips, wirt)
		rep.line(p, "  fit: WIPS = %.2f·k %+.1f   r²(WIPS,WIRT) = %.4f",
			"slope", f.Slope, "intercept", f.Intercept, "r²(WIPS,WIRT)", corr*corr)
	}
}

// ReadScalePoint is one point of the read scale-out sweep: read
// throughput against read-serving node count at a fixed voter degree.
type ReadScalePoint struct {
	Readers     int     // learner readers per group
	ReadNodes   int     // read-serving nodes per group (voters + readers)
	ReadsPerSec float64 // read interactions served per second, all groups
	WIPS        float64
	WIRTms      float64
	FenceWaits  int64   // fenced reads that waited for the serving replica
	StaleServes int64   // fence waits that fell back TooStale to the voters
	Errors      int     // client-visible errors (the run is failure-free)
	Evictions   int     // servers the proxy's quality gate pulled from rotation
	Scale       float64 // ReadsPerSec relative to the first count swept
}

// ReadScale runs base — a read-heavy profile (Browsing is 95 % reads) at a
// fixed voter degree — with each count of learner-backed readers per
// group: learners receive the learn stream and serve fenced follower reads
// without joining the write quorum, so read capacity grows with every
// read-serving node while the voter set — and write latency — stays fixed.
func ReadScale(base RunConfig, counts []int) []ReadScalePoint {
	var out []ReadScalePoint
	var first float64
	for _, readers := range counts {
		base.Readers = readers
		r := Run(base)
		p := ReadScalePoint{
			Readers:   readers,
			ReadNodes: r.Cfg.Servers + readers,
			WIPS:      r.AWIPS,
			WIRTms:    r.WIRTms,
			Errors:    r.Errors,
			Evictions: r.Proxy.QualityEvictions,
		}
		for _, g := range r.PerGroup {
			p.ReadsPerSec += g.ReadsPerSec
			p.FenceWaits += g.FenceWaits
			p.StaleServes += g.StaleServes
		}
		if first == 0 {
			first = p.ReadsPerSec
		}
		if first > 0 {
			p.Scale = p.ReadsPerSec / first
		}
		out = append(out, p)
	}
	return out
}

// FaultMatrix runs base — one faultload at one size — across the paper's
// dependability grid: the given replication degrees (the paper's 5 and 8)
// × all three profiles (Tables 1–6, Figures 5, 7, 8).
func FaultMatrix(base RunConfig, degrees []int) map[string]RunResult {
	out := make(map[string]RunResult)
	for _, servers := range degrees {
		for _, profile := range rbe.Profiles {
			base.Servers, base.Profile = servers, profile
			out[matrixKey(servers, profile)] = Run(base)
		}
	}
	return out
}

func matrixKey(servers int, profile rbe.Profile) string {
	return string(rune('0'+servers)) + "/" + profile.String()[:1]
}

// recoveryTimes reproduces Figure 6 as a table: the recovery seconds of
// base's crash for every combination of replication degree, profile and
// initial state size {300, 500, 700} MB, -1 where the replica never
// recovered.
func recoveryTimes(rep *report, base RunConfig, degrees []int) {
	rep.title("Figure 6 — One failure: recovery times (s)")
	rep.tab([]column{{"replicas", "%-9d", ""}, {"profile", " %-10s", ""},
		{"300MB", " %8.0f", ""}, {"500MB", " %8.0f", ""}, {"700MB", " %8.0f", ""}})
	for _, servers := range degrees {
		for _, profile := range rbe.Profiles {
			row := []any{servers, profile.String()}
			for _, stateMB := range []int{300, 500, 700} {
				base.Servers, base.Profile, base.StateMB = servers, profile, stateMB
				sec := -1.0
				if r := Run(base); len(r.RecoveryDur) > 0 {
					sec = r.RecoveryDur[0]
				}
				row = append(row, sec)
			}
			rep.row(matrixKey(servers, profile), row...)
		}
	}
}

// --- Sharded recovery scenarios ----------------------------------------

// ShardedFaultloads returns the standard scenario set for a deployment of
// the given shard count, all expressed in the faultload DSL: one member
// of every group crashing simultaneously, the same as a rolling wave, and
// a whole group lost until manual recovery (quorum loss for its client
// slice). Times follow the paper's x-axis and scale with a shortened
// measurement interval like the §5.4–5.6 faultloads.
func ShardedFaultloads(shards int) []Faultload {
	return []Faultload{
		MemberEveryGroup(270),
		RollingMemberEveryGroup(shards, 240, 30),
		GroupOutage(0, 240, 390),
	}
}

// PartitionFaultloads returns the standard correlated-fault scenario set,
// all on the paper's x-axis with a 90 s partition window opening at
// t=240 s: the group-0 leader isolated (failover without a crash), a
// quorum-preserving minority split, a whole group isolated from the proxy
// (client-slice outage with every member alive), and asymmetric one-way
// loss on a single member. With several shards the untouched groups keep
// serving — the per-group report shows the blast radius.
func PartitionFaultloads() []Faultload {
	return []Faultload{
		LeaderIsolation(0, 240, 330),
		MinoritySplit(0, 240, 330),
		GroupIsolation(0, 240, 330),
		AsymmetricLoss(0, 240, 330),
	}
}

// SlowDiskFaultload is the straggler scenario: one member of group 0 runs
// on a disk degraded by DefaultSlowFactor from t=240 s until a swap at
// t=420 s.
func SlowDiskFaultload() Faultload {
	return SlowDiskStraggler(0, 0, 240, 420)
}

// GrayFaultloads returns the named gray-failure scenario set: faults that
// keep every probe and consensus ping healthy while service quality dies —
// the blind spot of timeout-based detection, which a fault model of crashes
// and partitions alone never exercises. All windows open at t=240 s and
// restore at t=390 s on the paper's x-axis:
//
//   - gray-fail: one member of group 0 fast-errors half its requests
//     (DefaultGrayRate) while acking every probe; only served-traffic
//     quality (the proxy's error EWMA) can justify evicting it.
//   - gray-leader: the member leading group 0's consensus at fire time
//     slow-walks every request 20× — the worst-placed victim, since it
//     also carries proposal traffic.
//   - link-delay: every link of one member inflates DefaultDelayFactor× —
//     nothing drops, quorum round-trips through it just crawl.
//   - partition-flap: one member partitions and heals on a 50 s cadence
//     (40% duty), forcing re-detection and reabsorption every cycle.
func GrayFaultloads() []Faultload {
	return []Faultload{
		GrayFailServer(0, 0, 240, 390),
		GrayLeader(0, 20, 240, 390),
		LinkDelayStraggler(0, 0, 240, 390),
		PartitionFlap(0, 240, 390, 50, 0.4),
	}
}

// Suite runs base under every scenario and returns the per-scenario
// results, each carrying the fault windows (RunResult.FaultWindows) and the
// per-group + aggregate dependability report (RunResult.PerGroup).
func Suite(base RunConfig, scenarios []Faultload) []RunResult {
	out := make([]RunResult, 0, len(scenarios))
	for _, fl := range scenarios {
		base.Fault = fl
		out = append(out, Run(base))
	}
	return out
}

// PartitionBenchPoint is the leader-isolation benchmark's summary: how
// fast the group detects the silent leader and re-elects (throughput back
// during the window), how fast it reabsorbs the stale ex-leader after the
// heal, and the AWIPS levels before, during and after the window.
type PartitionBenchPoint struct {
	DetectSec   float64 // window open → throughput ≥ threshold; -1: never within the run
	ReabsorbSec float64 // heal → throughput ≥ threshold; -1: never within the run
	FFAWIPS     float64 // failure-free level
	WindowAWIPS float64 // mean during the partition window
	PostAWIPS   float64 // mean after the heal
}

// PartitionRecoveryBench measures leader-isolation failover on base, a
// single-group deployment.
func PartitionRecoveryBench(base RunConfig) PartitionBenchPoint {
	base.Fault = LeaderIsolation(0, 240, 330)
	r := Run(base)
	// Recovery times default to the "never recovered within the run"
	// sentinel, so a liveness regression (e.g. the stale-leader-rejoin
	// livelock this benchmark was built to track) publishes -1, not a
	// perfect 0-second score.
	pt := PartitionBenchPoint{
		DetectSec:   -1,
		ReabsorbSec: -1,
		FFAWIPS:     r.Perf.FailureFreeAWIPS,
		WindowAWIPS: r.Perf.RecoveryAWIPS,
	}
	if len(r.FaultWindows) == 0 {
		return pt
	}
	w := r.FaultWindows[0]
	threshold := 0.7 * pt.FFAWIPS
	if at := SeriesRecoversAt(r.Series, int(w.FromSec)+1, threshold); at >= 0 {
		if pt.DetectSec = float64(at) - w.FromSec; pt.DetectSec < 0 {
			pt.DetectSec = 0
		}
	}
	if w.ToSec > 0 {
		if at := SeriesRecoversAt(r.Series, int(w.ToSec)+1, threshold); at >= 0 {
			if pt.ReabsorbSec = float64(at) - w.ToSec; pt.ReabsorbSec < 0 {
				pt.ReabsorbSec = 0
			}
		}
		end := len(r.Series)
		if e := int(w.ToSec) + 1; e < end {
			pt.PostAWIPS = stats.Mean(r.Series[e:end])
		}
	}
	return pt
}

// SeriesRecoversAt returns the first second at/after floor where
// throughput is back AND stays back: the bucket itself and the mean of
// the three buckets starting there reach target. Looking forward (never
// before floor) keeps full one-second resolution without letting healthy
// pre-phase seconds mask a dip or one jittery bucket declare recovery.
// Returns -1 when throughput never sustains target within the run. The
// fault-search oracles (internal/exp/search) use it as the write-wedge
// check — a run whose throughput never sustains the target after its last
// fault is restored has wedged.
func SeriesRecoversAt(series []float64, floor int, target float64) int {
	if floor < 0 {
		floor = 0
	}
	for i := floor; i+2 < len(series); i++ {
		if series[i] >= target && stats.Mean(series[i:i+3]) >= target {
			return i
		}
	}
	return -1
}

// ShardedRecoveryPoint is one point of the recovery-vs-shard-count curve:
// the member-every-group faultload at one shard count.
type ShardedRecoveryPoint struct {
	Shards          int
	MeanRecoverySec float64 // mean over all crashed members
	WorstGroupAvail float64 // min per-group availability
	AWIPS           float64 // aggregate throughput over the measurement
}

// ShardedRecoveryCurve measures how recovery behaves as the deployment
// fans out: for each shard count it runs base with one member of every
// group crashed and reports mean recovery time, worst-group availability
// and aggregate throughput.
func ShardedRecoveryCurve(base RunConfig, shardCounts []int) []ShardedRecoveryPoint {
	base.Fault = MemberEveryGroup(270)
	out := make([]ShardedRecoveryPoint, 0, len(shardCounts))
	for _, n := range shardCounts {
		base.Shards = n
		r := Run(base)
		pt := ShardedRecoveryPoint{Shards: n, AWIPS: r.AWIPS, WorstGroupAvail: 1}
		var durSum float64
		var recs int
		for _, g := range r.PerGroup {
			if g.Availability < pt.WorstGroupAvail {
				pt.WorstGroupAvail = g.Availability
			}
			durSum += g.MeanRecoverySec * float64(g.Recoveries)
			recs += g.Recoveries
		}
		if recs > 0 {
			pt.MeanRecoverySec = durSum / float64(recs)
		}
		out = append(out, pt)
	}
	return out
}

// RebalanceScenario is the resharding-under-fault experiment: base's
// deployment takes its workload, one group is added live at t=240 s on the
// paper's x-axis (epoch-versioned routing cutover with keyed state
// transfer), and a member of a source group is killed exactly when the
// migration enters its copy phase. The result reports
// the migration window and the per-group dependability rows — the new
// group included — alongside the paper's measures, answering: does
// resharding stay downtime-free even when a replica dies mid-handoff?
func RebalanceScenario(base RunConfig) RunResult {
	base.RebalanceAtSec, base.CrashMidMigration = 240, true
	return Run(base)
}

// AblationResult compares a design choice on/off under one workload.
type AblationResult struct {
	Name                      string
	BaselineNote, VariantNote string
	Baseline, Variant         RunResult
}

// Ablation runs base and the same run with one design choice switched off
// by vary.
func Ablation(name, baselineNote, variantNote string, base RunConfig, vary func(*RunConfig)) AblationResult {
	variant := base
	vary(&variant)
	return AblationResult{
		Name:         name,
		BaselineNote: baselineNote, Baseline: Run(base),
		VariantNote: variantNote, Variant: Run(variant),
	}
}
