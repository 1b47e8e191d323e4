// Package metrics implements the measurement side of the paper's
// dependability benchmark: WIPS time series (web interactions per second),
// WIRT (web interaction response time) and the four dependability measures
// of §5.1 — availability, performability, accuracy and autonomy.
package metrics

import (
	"time"

	"robuststore/internal/stats"
)

// Recorder accumulates interaction completions into one-second buckets.
// It is not safe for concurrent use; in the simulator all completions are
// recorded from the single event loop, and the live runtime wraps it in a
// mutex.
type Recorder struct {
	bucket     time.Duration // width of a WIPS bucket
	start      time.Time     // experiment origin (bucket 0)
	wips       []int         // completed interactions per bucket
	errs       []int         // errored interactions per bucket
	latencySum []float64     // summed latency (seconds) per bucket
	total      int
	totalErrs  int
}

// NewRecorder returns a Recorder whose bucket 0 starts at start. The paper
// plots WIPS histograms with one-second resolution.
func NewRecorder(start time.Time, bucket time.Duration) *Recorder {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Recorder{bucket: bucket, start: start}
}

func (r *Recorder) grow(idx int) {
	for len(r.wips) <= idx {
		r.wips = append(r.wips, 0)
		r.errs = append(r.errs, 0)
		r.latencySum = append(r.latencySum, 0)
	}
}

// Record registers an interaction that completed at time at with the given
// latency. Errored interactions count toward accuracy but not WIPS.
func (r *Recorder) Record(at time.Time, latency time.Duration, isErr bool) {
	idx := int(at.Sub(r.start) / r.bucket)
	if idx < 0 {
		return
	}
	r.grow(idx)
	r.total++
	if isErr {
		r.errs[idx]++
		r.totalErrs++
		return
	}
	r.wips[idx]++
	r.latencySum[idx] += latency.Seconds()
}

// Total returns the total number of recorded interactions (including
// errors).
func (r *Recorder) Total() int { return r.total }

// TotalErrors returns the number of errored interactions.
func (r *Recorder) TotalErrors() int { return r.totalErrs }

// Series returns the per-bucket WIPS values for buckets in [from, to)
// (bucket indices, i.e. seconds from the experiment origin for one-second
// buckets).
func (r *Recorder) Series(from, to int) []float64 {
	if from < 0 {
		from = 0
	}
	out := make([]float64, 0, to-from)
	for i := from; i < to; i++ {
		if i < len(r.wips) {
			out = append(out, float64(r.wips[i]))
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// MeanLatency returns the mean latency over buckets [from, to), in
// seconds. Buckets with no completions contribute nothing.
func (r *Recorder) MeanLatency(from, to int) float64 {
	var sum float64
	var n int
	for i := from; i < to && i < len(r.wips); i++ {
		if i < 0 {
			continue
		}
		sum += r.latencySum[i]
		n += r.wips[i]
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AWIPS returns the average WIPS over buckets [from, to).
func (r *Recorder) AWIPS(from, to int) float64 {
	return stats.Mean(r.Series(from, to))
}

// CV returns the coefficient of variation of the WIPS series over
// [from, to).
func (r *Recorder) CV(from, to int) float64 {
	return stats.CV(r.Series(from, to))
}

// Accuracy returns the fraction of requests completed without error, as a
// percentage (the paper reports e.g. 99.999). An experiment with no
// requests is 100 % accurate.
func (r *Recorder) Accuracy() float64 {
	if r.total == 0 {
		return 100
	}
	return 100 * float64(r.total-r.totalErrs) / float64(r.total)
}

// WeightedGroupAccuracy folds read-path staleness into a group's accuracy
// instead of reporting it beside it: a fence wait cost the client bounded
// extra latency (≈ a tenth of an error), a TooStale fallback cost a full
// re-dispatch to the voters (≈ half an error). The weighted error mass is
// clamped to the request count, and a fence-clean run (both counters
// zero) reports bit-for-bit the unweighted Accuracy.
func WeightedGroupAccuracy(total, errs int, fenceWaits, staleServes int64) float64 {
	if total == 0 {
		return 100
	}
	weighted := float64(errs) + 0.1*float64(fenceWaits) + 0.5*float64(staleServes)
	if weighted > float64(total) {
		weighted = float64(total)
	}
	return 100 * (float64(total) - weighted) / float64(total)
}

// Window is a half-open interval of bucket indices.
type Window struct {
	From, To int
}

// Performability compares average performance during failure-free windows
// against the recovery window, per the paper's definition (§5.1):
// PV = (recovery AWIPS - failure-free AWIPS) / failure-free AWIPS.
type Performability struct {
	FailureFreeAWIPS float64
	FailureFreeCV    float64
	RecoveryAWIPS    float64
	RecoveryCV       float64
	PV               float64 // percent, negative means performance dropped
}

// ComputePerformability evaluates the failure-free and recovery windows.
// Multiple failure-free windows are concatenated.
func (r *Recorder) ComputePerformability(failureFree []Window, recovery Window) Performability {
	var ff []float64
	for _, w := range failureFree {
		ff = append(ff, r.Series(w.From, w.To)...)
	}
	rec := r.Series(recovery.From, recovery.To)
	p := Performability{
		FailureFreeAWIPS: stats.Mean(ff),
		FailureFreeCV:    stats.CV(ff),
		RecoveryAWIPS:    stats.Mean(rec),
		RecoveryCV:       stats.CV(rec),
	}
	if p.FailureFreeAWIPS > 0 {
		p.PV = 100 * (p.RecoveryAWIPS - p.FailureFreeAWIPS) / p.FailureFreeAWIPS
	}
	return p
}

// ShardedRecorder fans interaction samples out to an aggregate Recorder
// plus one Recorder per Paxos group, routing by the deployment's
// client→group mapping. With one group it degenerates to a plain Recorder
// whose group 0 mirrors the aggregate.
type ShardedRecorder struct {
	agg     *Recorder
	groups  []*Recorder
	groupOf func(client int64) int
}

// NewShardedRecorder builds a recorder for a deployment of the given
// group count. groupOf maps a client ID to its owning group; nil routes
// everything to group 0.
func NewShardedRecorder(start time.Time, bucket time.Duration, groups int,
	groupOf func(client int64) int) *ShardedRecorder {
	if groups < 1 {
		groups = 1
	}
	r := &ShardedRecorder{
		agg:     NewRecorder(start, bucket),
		groupOf: groupOf,
	}
	for g := 0; g < groups; g++ {
		r.groups = append(r.groups, NewRecorder(start, bucket))
	}
	return r
}

// RecordClient registers a completion under both the aggregate and the
// client's group.
func (r *ShardedRecorder) RecordClient(client int64, at time.Time, latency time.Duration, isErr bool) {
	r.agg.Record(at, latency, isErr)
	g := 0
	if r.groupOf != nil {
		g = r.groupOf(client) % len(r.groups)
	}
	r.groups[g].Record(at, latency, isErr)
}

// Aggregate returns the all-groups recorder.
func (r *ShardedRecorder) Aggregate() *Recorder { return r.agg }

// Group returns group g's recorder.
func (r *ShardedRecorder) Group(g int) *Recorder { return r.groups[g] }

// GroupReport is one Paxos group's slice of a sharded dependability
// report: the throughput and accuracy its client slice observed, its
// cumulative outage time, and the recovery windows of its crashed
// members. The aggregate counterpart is the run-level report; at one
// group the two coincide.
type GroupReport struct {
	Group           int
	AWIPS           float64
	Accuracy        float64 // percent
	Downtime        time.Duration
	Availability    float64
	Crashes         int
	Recoveries      int
	MeanRecoverySec float64
	Perf            Performability

	// Windows totals the correlated-fault windows on this group, beside
	// the crash/recovery ones, by FaultWindow.Kind: how many opened and how
	// long the group spent under them. Open windows extend to run end; nil
	// when the group saw none.
	Windows map[string]WindowTotal

	// Read-path staleness accounting (learner-backed follower reads):
	// reads the group's voters + readers served to completion, reads per
	// second of measured time, fenced reads that had to wait for the
	// serving replica to catch up, and fence waits that expired into a
	// TooStale fallback to the voters.
	ReadsServed int64
	ReadsPerSec float64
	FenceWaits  int64
	StaleServes int64

	// Cross-shard transaction accounting (2PC over the Paxos groups):
	// decision records this group's log committed or aborted, and the
	// cumulative time its prepared branches held conflict keys blocked
	// while waiting for an outcome.
	TxnCommits    int64
	TxnAborts     int64
	TxnBlockedSec float64
}

// WindowTotal counts one group's fault windows of one kind and the seconds
// it spent under them.
type WindowTotal struct {
	Count int
	Sec   float64
}

// AggregateGroups folds per-group reports into one deployment-wide row:
// availability is governed by the worst group (a whole-group outage is a
// full outage for that client slice), crash and recovery counts sum, and
// the mean recovery time averages over all recovered members. Accuracy is
// not derivable from the rows (they carry percentages, not counts) — the
// caller fills it from the run-level recorder.
func AggregateGroups(groups []GroupReport, total time.Duration) GroupReport {
	out := GroupReport{Group: -1, Availability: 1}
	var durSum float64
	var awipsSum float64
	for _, g := range groups {
		if g.Downtime > out.Downtime {
			out.Downtime = g.Downtime
		}
		out.Crashes += g.Crashes
		out.Recoveries += g.Recoveries
		durSum += g.MeanRecoverySec * float64(g.Recoveries)
		awipsSum += g.AWIPS
		for kind, w := range g.Windows {
			if out.Windows == nil {
				out.Windows = map[string]WindowTotal{}
			}
			// Windows of different groups overlap the same wall clock, so
			// the seconds are the worst group's, like downtime.
			t := out.Windows[kind]
			out.Windows[kind] = WindowTotal{Count: t.Count + w.Count, Sec: max(t.Sec, w.Sec)}
		}
		out.ReadsServed += g.ReadsServed
		out.ReadsPerSec += g.ReadsPerSec
		out.FenceWaits += g.FenceWaits
		out.StaleServes += g.StaleServes
		out.TxnCommits += g.TxnCommits
		out.TxnAborts += g.TxnAborts
		out.TxnBlockedSec += g.TxnBlockedSec
	}
	out.AWIPS = awipsSum
	out.Availability = Availability(out.Downtime, total)
	if out.Recoveries > 0 {
		out.MeanRecoverySec = durSum / float64(out.Recoveries)
	}
	return out
}

// FaultWindow is one non-crash fault-injection window on the run's
// x-axis: the interval one group spent network-partitioned or running on
// a degraded disk. An event hitting several groups emits one window per
// group, so per-group reports aggregate without cross-referencing.
type FaultWindow struct {
	Kind    string  // "partition" | "slowdisk" | "linkloss" | "grayfail" | "linkdelay"
	Group   int     // affected group
	Dir     string  // blocked direction for partitions ("both"/"outbound"/"inbound")
	Factor  float64 // degradation factor (disk/delay multiplier, loss/gray rate)
	FromSec float64 // window open, seconds from run start
	ToSec   float64 // window close; < 0 when never healed (open at run end)
}

// MigrationReport carries a live rebalance's measures alongside the
// paper's dependability metrics: when the migration window opened and
// closed on the run's x-axis, how much of the hash space moved, and which
// group joined. The window is the only client-visible impact interval —
// during it, writes of moving keys are delayed (never failed), so it is
// reported next to availability rather than folded into downtime.
type MigrationReport struct {
	Happened    bool
	NewGroup    int
	MovedSlices int
	TotalSlices int
	StartSec    float64 // window open (freeze), seconds from run start
	CutoverSec  float64 // window close (new epoch published)
	WindowSec   float64 // CutoverSec - StartSec
}

// ComputeAutonomy returns interventions/faults, or 0 when no faults were
// injected.
func ComputeAutonomy(interventions, faults int) float64 {
	if faults == 0 {
		return 0
	}
	return float64(interventions) / float64(faults)
}

// Availability computes the ratio between operational time and total run
// duration given the downtime observed.
func Availability(downtime, total time.Duration) float64 {
	if total <= 0 {
		return 1
	}
	a := 1 - downtime.Seconds()/total.Seconds()
	if a < 0 {
		return 0
	}
	return a
}
