// Paxos/Treplica safety property test: across seeded random crash/recover
// schedules, the full stack (internal/paxos consensus + internal/core
// checkpointing and recovery) must preserve agreement — no two replicas
// ever apply different actions at the same position of the replicated log
// — and WAL/checkpoint replay must be idempotent: recovering a replica,
// once or repeatedly, never duplicates or reorders applied actions.
//
// The test lives with the simulator because it is a whole-stack property:
// the crash semantics under test (volatile state destroyed, stable
// storage surviving, recovery replaying the WAL against a restored
// checkpoint) are exactly what sim.Crash/Restart model.
package sim_test

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/sim"
	"robuststore/internal/xrand"
)

// recMachine records the totally ordered action IDs it executes; its
// snapshot is the whole log, so checkpoint+replay mistakes (double
// replay, lost suffix) surface as log anomalies.
type recMachine struct {
	log []int64
}

func (m *recMachine) Execute(action any) any {
	m.log = append(m.log, action.(int64))
	return int64(len(m.log))
}

func (m *recMachine) Snapshot() (any, int64) {
	cp := append([]int64(nil), m.log...)
	return cp, int64(8*len(cp)) + 8
}

func (m *recMachine) Restore(data any) {
	m.log = append([]int64(nil), data.([]int64)...)
}

// deltaRecMachine gives a recMachine the core.DeltaSnapshotter capability, so
// the replica checkpoints and recovers through base + delta chain — the path
// every web-tier run takes — instead of a full base every time. A delta
// is the log suffix since the last checkpoint; a chain applied out of order,
// twice or onto the wrong base shows as a log anomaly.
type deltaRecMachine struct {
	*recMachine
	anchored bool // a Snapshot or Restore has anchored the chain
	mark     int  // len(log) at the last checkpoint
	use      *layerUse
}

// layerUse counts what the layered path did, so the test can tell it ran.
type layerUse struct{ taken, applied int }

func (m *deltaRecMachine) Snapshot() (any, int64) {
	m.anchored, m.mark = true, len(m.log)
	return m.recMachine.Snapshot()
}

func (m *deltaRecMachine) Restore(data any) {
	m.recMachine.Restore(data)
	m.anchored, m.mark = true, len(m.log)
}

func (m *deltaRecMachine) SnapshotDelta() (any, int64, bool) {
	if !m.anchored {
		return nil, 0, false
	}
	suffix := append([]int64(nil), m.log[m.mark:]...)
	m.mark = len(m.log)
	m.use.taken++
	return suffix, int64(8*len(suffix)) + 8, true
}

func (m *deltaRecMachine) ApplyDelta(data any) {
	m.log = append(m.log, data.([]int64)...)
	m.mark = len(m.log)
	m.use.applied++
}

// safetyCluster is n core.Replica nodes over one simulator.
type safetyCluster struct {
	s        *sim.Sim
	n        int
	ids      []env.NodeID
	replicas []*core.Replica // current incarnation per node
	machines []*recMachine   // current incarnation's state machine
}

// newSafetyCluster builds n core.Replica nodes; tune, if non-nil,
// adjusts each node's core.Config (the pipelined variant deepens the
// proposer window).
func newSafetyCluster(t *testing.T, n int, seed uint64, tune func(*core.Config)) *safetyCluster {
	t.Helper()
	c := &safetyCluster{
		s:        sim.New(sim.Config{Seed: seed}),
		n:        n,
		replicas: make([]*core.Replica, n),
		machines: make([]*recMachine, n),
	}
	for i := 0; i < n; i++ {
		idx := i
		id := c.s.AddNode(func() env.Node {
			cfg := core.Config{
				Machine: func() core.StateMachine {
					m := &recMachine{}
					c.machines[idx] = m
					return m
				},
				// Frequent checkpoints and a small retention window
				// force recoveries through the checkpoint-restore +
				// suffix-replay path rather than pure log replay.
				CheckpointInterval: 2 * time.Second,
				RetainInstances:    64,
			}
			if tune != nil {
				tune(&cfg)
			}
			r := core.NewReplica(cfg)
			c.replicas[idx] = r
			return r
		})
		c.ids = append(c.ids, id)
	}
	return c
}

// submit proposes action id at virtual time at on the lowest-indexed
// replica alive then; lost submissions (target crashed or not ready) are
// acceptable — the property under test is agreement, not liveness.
func (c *safetyCluster) submit(at time.Duration, id int64) {
	c.s.At(c.s.Now().Add(at), func() {
		for i := 0; i < c.n; i++ {
			if c.s.Alive(c.ids[i]) && c.replicas[i] != nil && c.replicas[i].Ready() {
				c.replicas[i].Submit(id, nil)
				return
			}
		}
	})
}

// checkAgreement asserts the pairwise prefix property and per-log
// uniqueness over every node's applied log.
func (c *safetyCluster) checkAgreement(t *testing.T, context string) {
	t.Helper()
	logs := make([][]int64, c.n)
	for i, m := range c.machines {
		if m != nil {
			logs[i] = m.log
		}
		seen := make(map[int64]bool, len(logs[i]))
		for _, id := range logs[i] {
			if seen[id] {
				t.Fatalf("%s: node %d applied action %d twice (replay not idempotent)", context, i, id)
			}
			seen[id] = true
		}
	}
	for a := 0; a < c.n; a++ {
		for b := a + 1; b < c.n; b++ {
			short, long := logs[a], logs[b]
			if len(short) > len(long) {
				short, long = long, short
			}
			for k := range short {
				if short[k] != long[k] {
					t.Fatalf("%s: nodes %d/%d disagree at log position %d: %d vs %d",
						context, a, b, k, logs[a][k], logs[b][k])
				}
			}
		}
	}
}

// TestPaxosSafetyUnderCrashSchedules runs seeded random crash/recover
// schedules and asserts agreement throughout and convergence at the end.
func TestPaxosSafetyUnderCrashSchedules(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSchedule(t, uint64(seed), nil)
		})
	}
}

// TestPaxosSafetyPipelined re-runs the crash schedules with the deep
// consensus pipeline of the group-commit configuration — MaxInFlight 32 ×
// MaxBatchCmds 64 streaming into consecutive instances — plus per-link
// loss windows on top of the crashes and partitions. Agreement and
// convergence must be insensitive to pipeline depth and flaky links.
func TestPaxosSafetyPipelined(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	tune := func(cfg *core.Config) {
		cfg.Paxos.MaxBatchCmds = 64
		cfg.Paxos.MaxInFlight = 32
		cfg.Paxos.BatchDelay = time.Millisecond
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSchedule(t, uint64(seed)+100, tune)
		})
	}
}

// TestPaxosSafetyLayered re-runs the crash schedules over a delta-capable
// machine: checkpoints are delta layers chained on a base, recovery is base +
// chain + suffix, and the remote fallback streams layers. Same properties.
func TestPaxosSafetyLayered(t *testing.T) {
	var use layerUse
	layered := func(cfg *core.Config) {
		plain := cfg.Machine
		cfg.Machine = func() core.StateMachine {
			return &deltaRecMachine{recMachine: plain().(*recMachine), use: &use}
		}
	}
	for seed := 0; seed < 16; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashSchedule(t, uint64(seed), layered)
		})
	}
	t.Logf("%d delta layers written, %d applied in recovery", use.taken, use.applied)
	if use.taken == 0 || use.applied == 0 {
		t.Fatal("the layered path did not run")
	}
}

func runCrashSchedule(t *testing.T, seed uint64, tune func(*core.Config)) {
	t.Helper()
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + 7)
	n := 3 + rng.Intn(2)*2 // 3 or 5 replicas
	c := newSafetyCluster(t, n, seed+1000, tune)
	c.s.StartAll()

	// Workload: one action every 25 ms over the 40 s active phase.
	var next int64
	for at := time.Second; at < 40*time.Second; at += 25 * time.Millisecond {
		next++
		c.submit(at, next)
	}

	// Fault schedule: random crashes (possibly overlapping, possibly
	// losing quorum) with restarts a few seconds later.
	faults := 1 + rng.Intn(4)
	for f := 0; f < faults; f++ {
		victim := c.ids[rng.Intn(n)]
		crashAt := 2*time.Second + time.Duration(rng.Intn(30000))*time.Millisecond
		upAt := crashAt + time.Second + time.Duration(rng.Intn(6000))*time.Millisecond
		c.s.At(c.s.Now().Add(crashAt), func() { c.s.Crash(victim) })
		c.s.At(c.s.Now().Add(upAt), func() { c.s.Restart(victim) })
	}

	// Partition schedule, interleaved with the crashes: random
	// quorum-preserving minorities isolated for a few seconds, possibly
	// overlapping each other (handles compose) and the crash windows.
	// Agreement must hold across every split; liveness must resume after
	// the heals.
	var parts []*netfault.Handle // every partition opened, healed or not
	for p := 1 + rng.Intn(3); p > 0; p-- {
		m := 1 + rng.Intn((n+1)/2) // 1..(n-1)/2 victims, quorum survives
		if max := (n - 1) / 2; m > max {
			m = max
		}
		perm := rng.Perm(n)
		victims := make([]env.NodeID, m)
		for i := 0; i < m; i++ {
			victims[i] = c.ids[perm[i]]
		}
		at := 2*time.Second + time.Duration(rng.Intn(30000))*time.Millisecond
		healAt := at + time.Second + time.Duration(rng.Intn(8000))*time.Millisecond
		var h *netfault.Handle
		c.s.At(c.s.Now().Add(at), func() {
			h = c.s.Links().Open(netfault.Fault{Nodes: victims, Sever: true})
			parts = append(parts, h)
		})
		c.s.At(c.s.Now().Add(healAt), func() { h.Heal() })
	}

	// The tuned variants add per-link loss windows: flaky directed
	// links (not severed ones) composing with the crash and partition
	// schedules above.
	if tune != nil {
		for l := 0; l < 2+rng.Intn(3); l++ {
			from := c.ids[rng.Intn(n)]
			to := c.ids[rng.Intn(n)]
			rate := 0.2 + 0.6*rng.Float64()
			at := 2*time.Second + time.Duration(rng.Intn(30000))*time.Millisecond
			clearAt := at + time.Second + time.Duration(rng.Intn(8000))*time.Millisecond
			var h *netfault.Handle
			c.s.At(c.s.Now().Add(at), func() {
				h = c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{from}, Peers: []env.NodeID{to},
					Dir: env.LinkOutboundOnly, Loss: rate})
			})
			c.s.At(c.s.Now().Add(clearAt), func() { h.Heal() })
		}
	}

	c.s.RunFor(40 * time.Second)
	c.checkAgreement(t, "active phase")

	// Heal: remove any leftover link blocks, restart everything, let
	// catch-up finish, then require full convergence, not just prefix
	// agreement.
	for _, h := range parts {
		h.Heal()
	}
	for _, id := range c.ids {
		c.s.Restart(id)
	}
	c.s.RunFor(20 * time.Second)
	c.checkAgreement(t, "healed")
	ref := c.machines[0].log
	if len(ref) == 0 {
		t.Fatalf("no progress at all (n=%d faults=%d)", n, faults)
	}
	for i := 1; i < n; i++ {
		if len(c.machines[i].log) != len(ref) {
			t.Fatalf("node %d converged to %d actions, node 0 to %d",
				i, len(c.machines[i].log), len(ref))
		}
	}
}

// TestWALReplayIdempotence recovers one replica repeatedly with no new
// traffic in between: every recovery must reproduce exactly the log the
// replica had before crashing — replay through checkpoint + WAL suffix
// is idempotent.
func TestWALReplayIdempotence(t *testing.T) {
	c := newSafetyCluster(t, 3, 42, nil)
	c.s.StartAll()
	var next int64
	for at := time.Second; at < 10*time.Second; at += 20 * time.Millisecond {
		next++
		c.submit(at, next)
	}
	c.s.RunFor(12 * time.Second)
	c.checkAgreement(t, "pre-crash")
	want := append([]int64(nil), c.machines[0].log...)
	if len(want) == 0 {
		t.Fatal("no actions applied before the crash")
	}

	for round := 1; round <= 3; round++ {
		c.s.Crash(c.ids[0])
		c.s.RunFor(time.Second)
		c.s.Restart(c.ids[0])
		c.s.RunFor(5 * time.Second)
		got := c.machines[0].log
		if len(got) != len(want) {
			t.Fatalf("recovery %d: log has %d actions, want %d", round, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("recovery %d: log diverged at %d: %d vs %d", round, k, got[k], want[k])
			}
		}
		c.checkAgreement(t, fmt.Sprintf("recovery %d", round))
	}
}
