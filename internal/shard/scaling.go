package shard

import (
	"fmt"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
)

// This file is the ordered-throughput measurement: an offered load of
// small ordered actions is hashed across the store's groups on the
// deterministic simulator, and aggregate committed-actions/sec is
// measured. One Paxos group's ordered throughput is capped by its WAL
// group-commit pipeline (disk flush latency × in-flight values × batch
// size); sharding multiplies the number of independent pipelines, which
// is the throughput-vs-shard-count curve the reference rows of
// cmd/experiment -run batching report.

const (
	// throughputReplicas is the replication degree of every group.
	throughputReplicas = 3

	// throughputKeys is the number of distinct partition keys the offered
	// load is spread over.
	throughputKeys = 512
)

// ThroughputConfig parameterizes one measurement.
type ThroughputConfig struct {
	// Shards is the group count under test.
	Shards int

	// Offered is the total offered load in actions/second, spread
	// uniformly over the partition keys.
	Offered int

	// Warmup precedes the measurement (leader election, first flushes).
	Warmup time.Duration

	// Measure is the measurement interval.
	Measure time.Duration

	// Seed fixes the simulation.
	Seed uint64

	// Paxos, when non-zero (detected by MaxBatchCmds ≠ 0), overrides the
	// per-group ordering pipeline — batch window, batch size, pipeline
	// depth — so experiments can sweep proposer configurations
	// (internal/exp's batching matrix). Zero keeps the reference pipeline.
	Paxos paxos.Config
}

// ThroughputResult reports one measurement.
type ThroughputResult struct {
	Shards    int
	Offered   int     // actions/second offered
	Committed int64   // actions ordered and applied during Measure
	PerSec    float64 // Committed / Measure
	PerShard  []int64 // per-group committed counts (balance check)
}

// counterMachine is the minimal deterministic state machine: it counts
// applied actions, isolating the measurement to the ordering pipeline.
type counterMachine struct {
	n int64
}

func (m *counterMachine) Execute(any) any { m.n++; return m.n }

func (m *counterMachine) Snapshot() (any, int64) { return m.n, 8 }

func (m *counterMachine) Restore(data any) { m.n, _ = data.(int64) }

// throughputAction is the unit of offered load.
type throughputAction struct {
	Key int32
}

// MeasureThroughput runs one offered-load experiment on a fresh simulated
// cluster and returns the committed-actions/sec it sustained.
func MeasureThroughput(cfg ThroughputConfig) ThroughputResult {
	pcfg := cfg.Paxos
	if pcfg.MaxBatchCmds == 0 {
		// The reference per-group ordering pipeline: a short batch window
		// with bounded batch size and in-flight values, so one group's
		// throughput is governed by its WAL flush rate rather than
		// unbounded batching. The batching experiment overrides this via
		// ThroughputConfig.Paxos to sweep batch size × pipeline depth.
		pcfg = paxos.Config{
			BatchDelay:   time.Millisecond,
			MaxBatchCmds: 8,
			MaxInFlight:  4,
		}
	}
	s := sim.New(sim.Config{Seed: cfg.Seed})
	store := New(s, Config{
		Shards:   cfg.Shards,
		Replicas: throughputReplicas,
		Machine:  func(int) core.StateMachine { return &counterMachine{} },
		Core: core.Config{
			// Checkpoints off the measurement path.
			CheckpointInterval: time.Hour,
			ActionSize:         func(any) int64 { return 160 },
			Paxos:              pcfg,
		},
	})
	s.StartAll()

	// Offered load: every tick submits a deterministic round-robin slice
	// of the key space. 2 ms ticks keep per-event work small while
	// holding the configured aggregate rate.
	const tick = 2 * time.Millisecond
	perTick := cfg.Offered * int(tick) / int(time.Second)
	if perTick < 1 {
		perTick = 1
	}
	keys := make([]string, throughputKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("key/%d", i)
	}
	next := 0
	var pump func()
	pump = func() {
		for i := 0; i < perTick; i++ {
			k := next % len(keys)
			next++
			store.Submit(keys[k], throughputAction{Key: int32(k)}, nil)
		}
		s.After(tick, pump)
	}
	s.After(0, pump)

	s.RunFor(cfg.Warmup)
	startPer := make([]int64, cfg.Shards)
	for i, st := range store.Status() {
		startPer[i] = st.Applied
	}
	s.RunFor(cfg.Measure)

	res := ThroughputResult{
		Shards:   cfg.Shards,
		Offered:  cfg.Offered,
		PerShard: make([]int64, cfg.Shards),
	}
	for i, st := range store.Status() {
		res.PerShard[i] = st.Applied - startPer[i]
		res.Committed += res.PerShard[i]
	}
	res.PerSec = float64(res.Committed) / cfg.Measure.Seconds()
	return res
}
