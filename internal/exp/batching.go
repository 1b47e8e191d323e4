package exp

import (
	"fmt"
	"time"

	"robuststore/internal/paxos"
	"robuststore/internal/shard"
)

// This file is the WAL group-commit experiment: on the same simulated
// disk, how far do a wider group-commit batch and a deeper consensus
// pipeline (MaxInFlight) move one group's ordered throughput, and does the
// gain survive sharding? The baseline row is shard.MeasureThroughput's
// reference pipeline (batch 8, 4 in flight), so the speedup column reads
// directly as "× over the reference engine", and the reference rows down
// the shard counts are the throughput-vs-shard-count curve of the
// hash-partitioned store.

// batchingOffered is the offered load per group in actions/second: past
// what the deepest pipeline orders, so every row reports its saturation
// throughput rather than the offered load back.
const batchingOffered = 150000

// BatchingConfig sizes the batching matrix.
type BatchingConfig struct {
	Shards          []int         // deployments swept
	Warmup, Measure time.Duration // per-cell simulation intervals
	Seed            uint64
}

// batchingMatrix runs the matrix and lays it out grouped by shard count:
// for each, the reference pipeline, then MaxInFlight {4, 32} with the wider
// group-commit batch, offered load beside committed so a row capped by its
// offered load shows as capped; the best single-group speedup closes it.
func batchingMatrix(rep *report, cfg BatchingConfig) {
	rep.title("Batching — committed actions/s vs batch size × MaxInFlight")
	rep.tab([]column{{"shards", "%-8d", ""}, {"pipeline", "%-10s", ""}, {"inflight", "%10d", ""}, {"batch", "%8d", ""},
		{"offered/s", "%12d", ""}, {"actions/s", "%12.0f", ""}, {"speedup", "%10.2f", ""}})
	best := 0.0
	for _, shards := range cfg.Shards {
		var base float64
		for i, p := range []paxos.Config{
			{BatchDelay: time.Millisecond, MaxBatchCmds: 8, MaxInFlight: 4},
			{BatchDelay: time.Millisecond, MaxBatchCmds: 64, MaxInFlight: 4},
			{BatchDelay: time.Millisecond, MaxBatchCmds: 64, MaxInFlight: 32},
		} {
			r := shard.MeasureThroughput(shard.ThroughputConfig{
				Shards:  shards,
				Offered: batchingOffered * shards,
				Warmup:  cfg.Warmup,
				Measure: cfg.Measure,
				Seed:    cfg.Seed,
				Paxos:   p,
			})
			name := "batched"
			if i == 0 {
				base, name = r.PerSec, "reference"
			} else if speedup := r.PerSec / base; shards == 1 && speedup > best {
				best = speedup
			}
			rep.row(fmt.Sprintf("%d/%d/%d", shards, p.MaxInFlight, p.MaxBatchCmds),
				shards, name, p.MaxInFlight, p.MaxBatchCmds, r.Offered, r.PerSec, r.PerSec/base)
		}
	}
	rep.line("", "best single-group speedup vs the reference pipeline: %.2f×", "best single-group speedup", best)
}
