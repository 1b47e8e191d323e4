package shard

import (
	"fmt"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
)

// This file is the shard-count scaling experiment: a fixed offered load
// of small ordered actions is hashed across the store's groups on the
// deterministic simulator, and aggregate committed-actions/sec is
// measured. One Paxos group's ordered throughput is capped by its WAL
// group-commit pipeline (disk flush latency × in-flight values × batch
// size); sharding multiplies the number of independent pipelines, which
// is the throughput-vs-shard-count curve cmd/experiment -run
// shard-scaling reports.

// ThroughputConfig parameterizes one scaling measurement.
type ThroughputConfig struct {
	// Shards is the group count under test.
	Shards int

	// Replicas per group. Default 3.
	Replicas int

	// Offered is the total offered load in actions/second, spread
	// uniformly over Keys partition keys. Default 8000.
	Offered int

	// Keys is the number of distinct partition keys. Default 512.
	Keys int

	// Warmup precedes the measurement (leader election, first flushes).
	// Default 2 s.
	Warmup time.Duration

	// Measure is the measurement interval. Default 10 s.
	Measure time.Duration

	// Seed fixes the simulation.
	Seed uint64

	// Paxos, when non-zero (detected by MaxBatchCmds ≠ 0), overrides the
	// per-group ordering pipeline — batch window, batch size, pipeline
	// depth — so experiments can sweep proposer configurations
	// (internal/exp's batching matrix). Zero keeps the reference pipeline
	// used by the shard-scaling benchmark.
	Paxos paxos.Config

	// Disk, when non-zero, overrides the simulated disk of every node.
	Disk sim.DiskConfig
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	if c.Offered == 0 {
		c.Offered = 8000
	}
	if c.Keys == 0 {
		c.Keys = 512
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure == 0 {
		c.Measure = 10 * time.Second
	}
	return c
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
	cfg = cfg.withDefaults()
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
	s := sim.New(sim.Config{Seed: cfg.Seed, Disk: cfg.Disk})
	store := New(s, Config{
		Shards:   cfg.Shards,
		Replicas: cfg.Replicas,
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
	keys := make([]string, cfg.Keys)
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
