package exp

import (
	"fmt"
	"io"
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

// BatchingPoint is one cell of the matrix.
type BatchingPoint struct {
	Shards      int
	MaxInFlight int // consensus pipeline depth
	MaxBatch    int // commands per proposed value
	Offered     int // aggregate offered actions/second
	PerSec      float64
	Baseline    bool    // the reference pipeline
	Speedup     float64 // PerSec over the same-shard baseline
}

// BatchingResult is the matrix, grouped by shard count.
type BatchingResult struct {
	Points []BatchingPoint
}

// Batching runs the matrix: for each shard count, the reference pipeline,
// then MaxInFlight {4, 32} with the wider group-commit batch.
func Batching(cfg BatchingConfig) BatchingResult {
	var out BatchingResult
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
			if i == 0 {
				base = r.PerSec
			}
			out.Points = append(out.Points, BatchingPoint{
				Shards:      shards,
				MaxInFlight: p.MaxInFlight,
				MaxBatch:    p.MaxBatchCmds,
				Offered:     r.Offered,
				PerSec:      r.PerSec,
				Baseline:    i == 0,
				Speedup:     r.PerSec / base,
			})
		}
	}
	return out
}

// SingleGroupSpeedup returns the best non-baseline single-group speedup in
// the result.
func (r BatchingResult) SingleGroupSpeedup() float64 {
	best := 0.0
	for _, pt := range r.Points {
		if pt.Shards == 1 && !pt.Baseline && pt.Speedup > best {
			best = pt.Speedup
		}
	}
	return best
}

// PrintBatching renders the matrix grouped by shard count, offered load
// beside committed so a row capped by its offered load shows as capped.
func PrintBatching(w io.Writer, r BatchingResult) {
	fmt.Fprintln(w, "Batching — committed actions/s vs batch size × MaxInFlight")
	fmt.Fprintf(w, "%-8s%-10s%10s%8s%12s%12s%10s\n",
		"shards", "pipeline", "inflight", "batch", "offered/s", "actions/s", "speedup")
	for _, pt := range r.Points {
		name := "batched"
		if pt.Baseline {
			name = "reference"
		}
		fmt.Fprintf(w, "%-8d%-10s%10d%8d%12d%12.0f%10.2f\n",
			pt.Shards, name, pt.MaxInFlight, pt.MaxBatch, pt.Offered, pt.PerSec, pt.Speedup)
	}
	fmt.Fprintf(w, "best single-group speedup vs the reference pipeline: %.2f×\n",
		r.SingleGroupSpeedup())
}
