package shard

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// seqMachine records applied actions in order (test fixture).
type seqMachine struct {
	log []string
}

func (m *seqMachine) Execute(action any) any {
	m.log = append(m.log, action.(string))
	return len(m.log)
}

func (m *seqMachine) Snapshot() (any, int64) {
	cp := append([]string(nil), m.log...)
	return cp, int64(16 * len(cp))
}

func (m *seqMachine) Restore(data any) {
	m.log = append([]string(nil), data.([]string)...)
}

// driveWorkload submits n actions at 10 ms intervals through submit and
// returns the observed results in submission order (0 where the action's
// completion was never reported).
func driveWorkload(s *sim.Sim, n int, submit func(key string, action any, done func(any, error))) []int {
	results := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		at := time.Second + time.Duration(i*10)*time.Millisecond
		s.At(s.Now().Add(at), func() {
			key := fmt.Sprintf("key/%d", i%17)
			submit(key, fmt.Sprintf("action-%d", i), func(result any, err error) {
				if err == nil {
					results[i] = result.(int)
				}
			})
		})
	}
	return results
}

// TestSingleShardMatchesUnshardedPath: a 1-shard Store must produce
// results identical to the pre-existing unsharded deployment — the same
// hand-built core.Replica cluster the seed code used — under the same
// seed and workload: same per-action results, same applied logs.
func TestSingleShardMatchesUnshardedPath(t *testing.T) {
	const replicas, actions = 3, 120

	// Unsharded baseline: replicas added by hand, Members defaulted.
	base := sim.New(sim.Config{Seed: 7})
	baseReps := make([]*core.Replica, replicas)
	baseMachines := make([]*seqMachine, replicas)
	for i := 0; i < replicas; i++ {
		idx := i
		base.AddNode(func() env.Node {
			r := core.NewReplica(core.Config{
				Machine: func() core.StateMachine {
					m := &seqMachine{}
					baseMachines[idx] = m
					return m
				},
			})
			baseReps[idx] = r
			return r
		})
	}
	base.StartAll()
	baseResults := driveWorkload(base, actions, func(_ string, action any, done func(any, error)) {
		baseReps[0].Submit(action, done)
	})
	base.RunFor(10 * time.Second)

	// 1-shard Store on an identically seeded simulator.
	ssim := sim.New(sim.Config{Seed: 7})
	store := New(ssim, Config{
		Shards:   1,
		Replicas: replicas,
		Machine:  func(int) core.StateMachine { return &seqMachine{} },
	})
	ssim.StartAll()
	storeResults := driveWorkload(ssim, actions, store.Submit)
	ssim.RunFor(10 * time.Second)

	for i := range baseResults {
		if baseResults[i] != storeResults[i] {
			t.Fatalf("action %d: unsharded result %d, 1-shard store result %d",
				i, baseResults[i], storeResults[i])
		}
	}
	for i := 0; i < replicas; i++ {
		baseLog := baseMachines[i].log
		storeLog := store.Group(0).Replica(i).Machine().(*seqMachine).log
		if len(baseLog) != len(storeLog) {
			t.Fatalf("replica %d: unsharded applied %d actions, 1-shard store %d",
				i, len(baseLog), len(storeLog))
		}
		for k := range baseLog {
			if baseLog[k] != storeLog[k] {
				t.Fatalf("replica %d: logs diverge at %d: %q vs %q",
					i, k, baseLog[k], storeLog[k])
			}
		}
	}
	if len(baseMachines[0].log) == 0 {
		t.Fatal("workload made no progress")
	}
}

// TestStorePartitionsByKey: with several shards, each group applies
// exactly the actions whose keys route to it — every key lands on
// exactly one group, and together the groups apply everything once.
func TestStorePartitionsByKey(t *testing.T) {
	const shards, actions = 4, 200
	s := sim.New(sim.Config{Seed: 11})
	store := New(s, Config{
		Shards:  shards,
		Machine: func(int) core.StateMachine { return &seqMachine{} },
	})
	s.StartAll()

	want := make([]map[string]bool, shards)
	for g := range want {
		want[g] = make(map[string]bool)
	}
	for i := 0; i < actions; i++ {
		i := i
		key := fmt.Sprintf("key/%d", i)
		action := fmt.Sprintf("action-%d", i)
		want[store.ShardOf(key)][action] = true
		s.At(s.Now().Add(time.Second+time.Duration(i*5)*time.Millisecond), func() {
			store.Submit(key, action, nil)
		})
	}
	s.RunFor(15 * time.Second)

	for g := 0; g < shards; g++ {
		log := store.Group(g).Replica(0).Machine().(*seqMachine).log
		if len(log) != len(want[g]) {
			t.Fatalf("shard %d applied %d actions, want %d", g, len(log), len(want[g]))
		}
		for _, a := range log {
			if !want[g][a] {
				t.Fatalf("shard %d applied %q, which routes elsewhere", g, a)
			}
		}
		// All members of the group agree.
		for m := 1; m < store.cfg.Replicas; m++ {
			other := store.Group(g).Replica(m).Machine().(*seqMachine).log
			if len(other) != len(log) {
				t.Fatalf("shard %d member %d applied %d actions, member 0 %d",
					g, m, len(other), len(log))
			}
		}
	}
}

// TestStoreSurvivesMemberCrash: one member of one group crashes and
// recovers mid-run; the store keeps serving the whole key space and the
// recovered member converges.
func TestStoreSurvivesMemberCrash(t *testing.T) {
	const shards, actions = 2, 300
	s := sim.New(sim.Config{Seed: 3})
	store := New(s, Config{
		Shards:  shards,
		Machine: func(int) core.StateMachine { return &seqMachine{} },
		Core:    core.Config{CheckpointInterval: 2 * time.Second},
	})
	s.StartAll()

	results := driveWorkload(s, actions, store.Submit)
	victim := store.Group(0).Members()[0]
	s.At(s.Now().Add(1500*time.Millisecond), func() { s.Crash(victim) })
	s.At(s.Now().Add(3500*time.Millisecond), func() { s.Restart(victim) })
	s.RunFor(20 * time.Second)

	applied := 0
	for _, r := range results {
		if r > 0 {
			applied++
		}
	}
	// Submissions routed to the crashed member before the proxy layer
	// notices may be lost; the bulk must still commit.
	if applied < actions*3/4 {
		t.Fatalf("only %d/%d actions committed across the crash", applied, actions)
	}
	for g := 0; g < shards; g++ {
		ref := store.Group(g).Replica(0).Machine().(*seqMachine).log
		for m := 1; m < store.cfg.Replicas; m++ {
			other := store.Group(g).Replica(m).Machine().(*seqMachine).log
			if len(other) != len(ref) {
				t.Fatalf("shard %d member %d has %d actions, member 0 has %d (no convergence)",
					g, m, len(other), len(ref))
			}
		}
	}
	st := store.Status()
	if st[0].Ready != store.cfg.Replicas || st[1].Ready != store.cfg.Replicas {
		t.Fatalf("expected all members ready after recovery, got %+v", st)
	}
}

// checkpointAll forces a checkpoint on every live member of every group
// through core.CheckpointFanout and calls done when all have completed; a
// member that crashes or is replaced mid-checkpoint counts as finished.
// Executor context only.
func checkpointAll(s *Store, done func()) {
	type target struct {
		grp *Group
		m   int
	}
	var targets []target
	var reps []*core.Replica
	for _, g := range s.groupList() {
		for m, id := range g.ids {
			if r := g.reps[m].Load(); r != nil && s.rt.Alive(id) {
				targets = append(targets, target{g, m})
				reps = append(reps, r)
			}
		}
	}
	core.CheckpointFanout(reps, func(k int) bool {
		t := targets[k]
		return !s.rt.Alive(t.grp.ids[t.m]) || t.grp.reps[t.m].Load() != reps[k]
	}, s.rt.After, done)
}

// TestStoreStatusAndCheckpoint exercises the aggregate facade: per-shard
// status, whose applied counts sum to the committed results, and a
// checkpoint fanned out over every group.
func TestStoreStatusAndCheckpoint(t *testing.T) {
	s := sim.New(sim.Config{Seed: 5})
	store := New(s, Config{
		Shards:  3,
		Machine: func(int) core.StateMachine { return &seqMachine{} },
	})
	s.StartAll()
	results := driveWorkload(s, 90, store.Submit)
	s.RunFor(10 * time.Second)

	var committed int64
	for _, r := range results {
		if r > 0 {
			committed++
		}
	}
	var applied int64
	leaders := 0
	for _, gs := range store.Status() {
		applied += gs.Applied
		if gs.Ready != store.cfg.Replicas {
			t.Errorf("shard %d: ready = %d, want %d", gs.Shard, gs.Ready, store.cfg.Replicas)
		}
		if gs.Leader >= 0 {
			leaders++
		}
		if gs.Backlog != 0 {
			t.Errorf("shard %d: backlog = %d after quiesce", gs.Shard, gs.Backlog)
		}
	}
	if applied != committed {
		t.Errorf("applied counts sum to %d, committed results = %d", applied, committed)
	}
	if leaders != 3 {
		t.Errorf("leader map has %d leaders, want one per shard (3)", leaders)
	}

	done := false
	s.At(s.Now(), func() { checkpointAll(store, func() { done = true }) })
	s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("Checkpoint completion callback never ran")
	}
}

// slowSnapMachine reports a huge snapshot size so the simulated disk
// write takes several seconds — long enough to crash a member while its
// checkpoint is still in flight.
type slowSnapMachine struct{ seqMachine }

func (m *slowSnapMachine) Snapshot() (any, int64) {
	data, _ := m.seqMachine.Snapshot()
	return data, 450e6 // ≈10 s at the default 45 MB/s write bandwidth
}

// TestCheckpointSurvivesMidCheckpointCrash: a member killed while its
// snapshot is on the disk loses the storage completion with the rest of
// its volatile state; the fan-out must notice and still complete
// instead of hanging forever.
func TestCheckpointSurvivesMidCheckpointCrash(t *testing.T) {
	s := sim.New(sim.Config{Seed: 9})
	store := New(s, Config{
		Shards:  2,
		Machine: func(int) core.StateMachine { return &slowSnapMachine{} },
	})
	s.StartAll()
	driveWorkload(s, 40, store.Submit)
	s.RunFor(5 * time.Second)

	victim := store.Group(0).Members()[1]
	done := false
	s.At(s.Now(), func() { checkpointAll(store, func() { done = true }) })
	s.At(s.Now().Add(time.Second), func() { s.Crash(victim) })
	s.RunFor(30 * time.Second)
	if !done {
		t.Fatal("Checkpoint hung after a member crashed mid-checkpoint")
	}

	// A second checkpoint with the victim still down completes too (dead
	// members are simply not targets).
	done = false
	s.At(s.Now(), func() { checkpointAll(store, func() { done = true }) })
	s.RunFor(60 * time.Second)
	if !done {
		t.Fatal("Checkpoint with a dead member never completed")
	}
}
