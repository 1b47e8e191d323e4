package exp

// This file is the checkpoint experiment: the Figure 6 trade-off
// (recovery time vs checkpoint interval) re-measured with delta layers
// against the paper's full-state checkpoints, which here are the same
// pipeline writing a full base every time. Full checkpoints couple the
// two costs — a short interval means less log to replay at recovery but
// O(state) disk writes every interval, which steal bandwidth and CPU
// from the serving path; delta layers decouple them, making short
// intervals (and therefore fast recovery) affordable.

// CheckpointPoint is one cell of the curve: one checkpoint interval in
// one mode.
type CheckpointPoint struct {
	IntervalSec int
	Incremental bool

	RecoverySec float64 // one-crash recovery duration (-1: none observed)
	AWIPS       float64 // sustained throughput over the measurement

	CkptWrites   int64   // steady-state checkpoints taken, cluster-wide
	CkptMB       float64 // steady-state checkpoint bytes written (MB)
	PerCkptMB    float64 // mean MB per checkpoint write
	CkptMBPerSec float64 // write rate over the accounting window (MB/s)
}

// CheckpointCurve runs base under the one-crash faultload at each
// checkpoint interval (seconds), once with a full base at every
// checkpoint and once with delta layers, at equal state size
// and offered load. Each point reports the recovery duration, the
// sustained throughput and the steady-state checkpoint disk traffic.
func CheckpointCurve(base RunConfig, intervals []int) []CheckpointPoint {
	base.Fault = OneCrash
	out := make([]CheckpointPoint, 0, 2*len(intervals))
	for _, iv := range intervals {
		for _, incremental := range []bool{false, true} {
			base.CheckpointIntervalSec, base.FullCheckpoints = iv, !incremental
			r := Run(base)
			pt := CheckpointPoint{
				IntervalSec: iv,
				Incremental: incremental,
				RecoverySec: -1,
				AWIPS:       r.AWIPS,
				CkptWrites:  r.CheckpointWrites,
				CkptMB:      float64(r.CheckpointBytes) / 1e6,
			}
			if len(r.RecoveryDur) > 0 {
				pt.RecoverySec = r.RecoveryDur[0]
			}
			if r.CheckpointWrites > 0 {
				pt.PerCkptMB = pt.CkptMB / float64(r.CheckpointWrites)
			}
			if r.CheckpointWindowSec > 0 {
				pt.CkptMBPerSec = pt.CkptMB / r.CheckpointWindowSec
			}
			out = append(out, pt)
		}
	}
	return out
}
