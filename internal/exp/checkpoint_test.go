package exp

import (
	"testing"
	"time"

	"robuststore/internal/rbe"
)

// TestCheckpointBytesDropWithDeltas is the headline acceptance check for
// the incremental pipeline: under the standard TPC-W load at the default
// 60 s interval, steady-state per-checkpoint disk bytes must drop at
// least 5× against monolithic full-state checkpoints (they drop ~100×:
// O(recent writes) vs O(state)), with no accuracy or throughput cost.
func TestCheckpointBytesDropWithDeltas(t *testing.T) {
	base := RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 300,
		Fault: NoFault, Browsers: 300, Measure: 120 * time.Second,
		CheckpointIntervalSec: 60, Seed: 2,
	}
	fullCfg := base
	fullCfg.FullCheckpoints = true
	full := Run(fullCfg)
	incr := Run(base)

	if full.CheckpointWrites == 0 || incr.CheckpointWrites == 0 {
		t.Fatalf("no steady-state checkpoints observed: full %d, incremental %d",
			full.CheckpointWrites, incr.CheckpointWrites)
	}
	perFull := full.CheckpointBytes / full.CheckpointWrites
	perIncr := incr.CheckpointBytes / incr.CheckpointWrites
	if perIncr*5 > perFull {
		t.Errorf("per-checkpoint bytes: full %d, incremental %d — want ≥5× reduction",
			perFull, perIncr)
	}
	// The pipeline must be a pure win: same service quality, no errors.
	if incr.Errors != 0 {
		t.Errorf("incremental run had %d errors", incr.Errors)
	}
	if incr.Accuracy < 99.9 {
		t.Errorf("incremental accuracy = %v", incr.Accuracy)
	}
	if incr.AWIPS < full.AWIPS-1 {
		t.Errorf("incremental AWIPS %.1f fell below full-checkpoint AWIPS %.1f",
			incr.AWIPS, full.AWIPS)
	}
}

// TestCheckpointCurveRecovery reproduces the Figure 6 trade-off point at
// the paper's default interval: at equal state size, recovery after a
// crash must be measurably faster with incremental checkpoints — full
// checkpoints keep the disk busy writing O(state) images around the
// recovery window. The sim is deterministic per seed, so the margin is
// reproducible.
func TestCheckpointCurveRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("two 500 MB fault runs")
	}
	pts := CheckpointCurve(RunConfig{
		Profile: rbe.Shopping, Servers: 3, StateMB: 500, Browsers: 300,
		Measure: 150 * time.Second, CrashAt: 90, Seed: 3,
	}, []int{60})
	if len(pts) != 2 {
		t.Fatalf("curve has %d points, want 2", len(pts))
	}
	full, incr := pts[0], pts[1]
	if full.Incremental || !incr.Incremental {
		t.Fatalf("unexpected point order: %+v", pts)
	}
	if full.RecoverySec <= 0 || incr.RecoverySec <= 0 {
		t.Fatalf("recovery not observed: full %.1f, incremental %.1f",
			full.RecoverySec, incr.RecoverySec)
	}
	if incr.RecoverySec >= full.RecoverySec-3 {
		t.Errorf("recovery %.1f s incremental vs %.1f s full — want a measurable improvement",
			incr.RecoverySec, full.RecoverySec)
	}
	if incr.PerCkptMB*5 > full.PerCkptMB {
		t.Errorf("per-checkpoint MB: full %.1f, incremental %.1f — want ≥5× reduction",
			full.PerCkptMB, incr.PerCkptMB)
	}

	rep := &report{}
	checkpointCurve(rep, pts)
	const curve = "Checkpoint curve — recovery time vs interval, full vs incremental"
	for row, mode := range map[string]string{"60 full": "full", "60 incremental": "incremental"} {
		if v := cellAt(t, rep, curve, row, "mode").value; v != mode {
			t.Errorf("row %s mode = %v, want %s", row, v, mode)
		}
	}
	if got := num(t, rep, curve, "60 incremental", "MB/ckpt"); got != incr.PerCkptMB {
		t.Errorf("incremental MB/ckpt cell = %v, want %v", got, incr.PerCkptMB)
	}
	if got := num(t, rep, curve, "60 full", "rec(s)"); got != full.RecoverySec {
		t.Errorf("full rec(s) cell = %v, want %v", got, full.RecoverySec)
	}
}
