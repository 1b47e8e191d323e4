package core

import (
	"errors"
	"fmt"
	"maps"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
)

// kvDeltaMachine extends kvMachine with the incremental-checkpoint
// capability: dirty-key tracking, delta capture and delta merge.
type kvDeltaMachine struct {
	kvMachine
	dirty    map[string]struct{}
	anchored bool
	dropped  bool  // DropOwned seen since the last anchor
	boost    int64 // extra nominal Snapshot size (models a large state)
}

func newKVDeltaMachine() *kvDeltaMachine {
	return &kvDeltaMachine{
		kvMachine: kvMachine{counts: make(map[string]int64)},
		dirty:     make(map[string]struct{}),
	}
}

func (m *kvDeltaMachine) Execute(action any) any {
	if a, ok := action.(incAction); ok {
		m.dirty[a.Key] = struct{}{}
	}
	return m.kvMachine.Execute(action)
}

func (m *kvDeltaMachine) Snapshot() (any, int64) {
	m.dirty = make(map[string]struct{})
	m.anchored = true
	m.dropped = false
	data, size := m.kvMachine.Snapshot()
	return data, size + m.boost
}

func (m *kvDeltaMachine) Restore(data any) {
	m.kvMachine.Restore(data)
	m.dirty = make(map[string]struct{})
	m.anchored = true
	m.dropped = false
}

type kvDeltaPayload struct {
	Counts map[string]int64
	Ops    int64
}

func (m *kvDeltaMachine) SnapshotDelta() (any, int64, bool) {
	if !m.anchored || m.dropped {
		return nil, 0, false
	}
	p := kvDeltaPayload{Counts: make(map[string]int64, len(m.dirty)), Ops: m.ops}
	for k := range m.dirty {
		p.Counts[k] = m.counts[k]
	}
	m.dirty = make(map[string]struct{})
	return p, int64(64 + 32*len(p.Counts)), true
}

func (m *kvDeltaMachine) ApplyDelta(data any) {
	p, ok := data.(kvDeltaPayload)
	if !ok {
		return
	}
	for k, v := range p.Counts {
		m.counts[k] = v
	}
	m.ops = p.Ops
	m.dirty = make(map[string]struct{})
	m.anchored = true
	m.dropped = false
}

// The partition capability, for the drop-truncates-chain tests: keys
// are owned literally.
func (m *kvDeltaMachine) ExportOwned(owned func(string) bool) (any, int64) {
	cp := make(map[string]int64)
	for k, v := range m.counts {
		if owned(k) {
			cp[k] = v
		}
	}
	return cp, int64(32 * len(cp))
}

func (m *kvDeltaMachine) ImportOwned(data any) {
	cp, ok := data.(map[string]int64)
	if !ok {
		return
	}
	for k, v := range cp {
		m.counts[k] = v
		m.dirty[k] = struct{}{}
	}
}

func (m *kvDeltaMachine) DropOwned(owned func(string) bool) {
	for k := range m.counts {
		if owned(k) {
			delete(m.counts, k)
			delete(m.dirty, k)
		}
	}
	m.dropped = true
}

// deltaCluster wires delta-capable replicas into the simulator, mirroring
// coreCluster.
type deltaCluster struct {
	s        *sim.Sim
	replicas []*Replica
	machines []*kvDeltaMachine
}

func newDeltaCluster(t *testing.T, n int, seed uint64, tweak func(id int, c *Config)) *deltaCluster {
	t.Helper()
	c := &deltaCluster{
		replicas: make([]*Replica, n),
		machines: make([]*kvDeltaMachine, n),
	}
	c.s = sim.New(sim.Config{Seed: seed})
	for i := 0; i < n; i++ {
		id := i
		c.s.AddNode(func() env.Node {
			cfg := Config{
				CheckpointInterval: 10 * time.Second,
				Machine: func() StateMachine {
					m := newKVDeltaMachine()
					c.machines[id] = m
					return m
				},
			}
			if tweak != nil {
				tweak(id, &cfg)
			}
			r := NewReplica(cfg)
			c.replicas[id] = r
			return r
		})
	}
	c.s.StartAll()
	return c
}

func (c *deltaCluster) submit(d time.Duration, id int, a incAction) {
	c.s.After(d, func() {
		if c.s.Alive(env.NodeID(id)) {
			c.replicas[id].Submit(a, nil)
		}
	})
}

func (c *deltaCluster) requireConverged(t *testing.T, wantOps int64) {
	t.Helper()
	for id, m := range c.machines {
		if !c.s.Alive(env.NodeID(id)) {
			continue
		}
		if m.ops != wantOps {
			t.Errorf("node %d applied %d ops, want %d", id, m.ops, wantOps)
		}
	}
	var ref *kvDeltaMachine
	for id, m := range c.machines {
		if !c.s.Alive(env.NodeID(id)) {
			continue
		}
		if ref == nil {
			ref = m
			continue
		}
		if len(m.counts) != len(ref.counts) {
			t.Fatalf("node %d state size %d != %d", id, len(m.counts), len(ref.counts))
		}
		for k, v := range ref.counts {
			if m.counts[k] != v {
				t.Fatalf("node %d: counts[%q]=%d, want %d", id, k, m.counts[k], v)
			}
		}
	}
}

// TestCheckpointPhaseWraps: the stagger phase is me mod 8 eighths of the
// interval — node IDs past 8 must wrap instead of delaying their first
// checkpoint by whole multiples of the interval (and re-synchronizing
// groups into lockstep pauses).
func TestCheckpointPhaseWraps(t *testing.T) {
	const iv = 80 * time.Second
	for _, tc := range []struct {
		me   env.NodeID
		want time.Duration
	}{
		{0, 0}, {1, 10 * time.Second}, {7, 70 * time.Second},
		{8, 0}, {9, 10 * time.Second}, {23, 70 * time.Second},
	} {
		if got := checkpointPhase(tc.me, iv); got != tc.want {
			t.Errorf("checkpointPhase(%d) = %v, want %v", tc.me, got, tc.want)
		}
	}
	for me := env.NodeID(0); me < 64; me++ {
		if p := checkpointPhase(me, iv); p >= iv {
			t.Errorf("node %d: phase %v exceeds the interval", me, p)
		}
	}
}

// deltaRun drives one fixed workload with a crash/restart of node 0 and
// returns the simulator, the replicas and node 1's final counts; used by
// the equivalence test below with different machine/config combinations.
func deltaRun(t *testing.T, seed uint64, delta bool, tweak func(id int, c *Config)) (*sim.Sim, []*Replica, map[string]int64) {
	t.Helper()
	var submit func(d time.Duration, id int, a incAction)
	var s *sim.Sim
	var replicas []*Replica
	var counts func() map[string]int64
	if delta {
		c := newDeltaCluster(t, 3, seed, tweak)
		s, replicas, submit = c.s, c.replicas, c.submit
		counts = func() map[string]int64 { return c.machines[1].counts }
	} else {
		c := newCoreCluster(t, 3, seed, func(id int, cfg *Config) {
			cfg.CheckpointInterval = 10 * time.Second
			cfg.Paxos = paxos.Config{}
			if tweak != nil {
				tweak(id, cfg)
			}
		})
		s, replicas, submit = c.s, c.replicas, c.submit
		counts = func() map[string]int64 { return c.machines[1].counts }
	}
	const total = 150
	for i := 0; i < total; i++ {
		submit(2*time.Second+time.Duration(i)*100*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%11), Delta: int64(1 + i%3)})
	}
	s.After(12*time.Second, func() { s.Crash(0) })
	s.After(16*time.Second, func() { s.Restart(0) })
	s.RunFor(40 * time.Second)
	return s, replicas, maps.Clone(counts())
}

// requireOneBase reads node id's durable checkpoint through its storage:
// it must hold the manifest and exactly the one base the manifest names,
// with an empty chain — no base that one superseded, and no "app"
// snapshot.
func requireOneBase(t *testing.T, s *sim.Sim, id int) {
	t.Helper()
	st := s.Storage(env.NodeID(id))
	var manifest metaSnap
	read := false
	st.LoadSnapshot("meta", func(snap env.Snapshot, ok bool) { manifest, read = snap.Data.(metaSnap) })
	s.RunFor(100 * time.Millisecond)
	if !read || manifest.Base == "" || len(manifest.Chain) != 0 {
		t.Fatalf("node %d: manifest %+v (read %v), want one base and no chain", id, manifest, read)
	}
	held := map[string]bool{}
	names := []string{manifest.Base, "app"}
	for seq := int64(1); seq < baseSeqOf(manifest.BaseID); seq++ {
		names = append(names, baseLayerName(seq))
	}
	for _, name := range names {
		st.LoadSnapshot(name, func(_ env.Snapshot, ok bool) { held[name] = ok })
	}
	s.RunFor(time.Second)
	if len(held) != len(names) {
		t.Fatalf("node %d: %d of %d probes completed", id, len(held), len(names))
	}
	for _, name := range names {
		if want := name == manifest.Base; held[name] != want {
			t.Errorf("node %d: snapshot %q on disk = %v, want %v", id, name, held[name], want)
		}
	}
}

// TestFullCheckpointEquivalence: a machine without DeltaSnapshotter, and a
// delta-capable machine at MaxDeltaChain < 0, both write a full base at
// every checkpoint and behave identically — same instances applied at the
// same virtual times, same final state, no delta layer, and on every disk
// the manifest and the one base it names. The delta path must reach the
// same final state while writing far fewer checkpoint bytes.
func TestFullCheckpointEquivalence(t *testing.T) {
	const seed = 77
	sA, replicasA, countsA := deltaRun(t, seed, false, nil)
	sB, replicasB, countsB := deltaRun(t, seed, true, func(id int, c *Config) { c.MaxDeltaChain = -1 })
	for i, a := range replicasA {
		b := replicasB[i]
		if a.LastApplied() != b.LastApplied() || a.AppliedCount() != b.AppliedCount() {
			t.Errorf("node %d diverged: plain machine (last=%d applied=%d) vs delta machine at MaxDeltaChain -1 (last=%d applied=%d)",
				i, a.LastApplied(), a.AppliedCount(), b.LastApplied(), b.AppliedCount())
		}
		for side, r := range []*Replica{a, b} {
			if bases, deltas, _ := r.CheckpointStats(); bases == 0 || deltas != 0 {
				t.Errorf("node %d side %d wrote %d bases and %d delta layers, want bases only", i, side, bases, deltas)
			}
		}
		requireOneBase(t, sA, i)
		requireOneBase(t, sB, i)
	}
	if len(countsA) != len(countsB) {
		t.Fatalf("final states differ in size: %d vs %d", len(countsA), len(countsB))
	}
	for k, v := range countsA {
		if countsB[k] != v {
			t.Errorf("counts[%q]: %d vs %d", k, v, countsB[k])
		}
	}
	// The incremental path: same final state, different (cheaper) I/O.
	_, _, countsC := deltaRun(t, seed, true, nil)
	for k, v := range countsA {
		if countsC[k] != v {
			t.Errorf("incremental counts[%q]: %d, want %d", k, countsC[k], v)
		}
	}
}

// TestDeltaChainRecovery: a crashed replica recovers from base + delta
// layers and re-applies only the log suffix; steady-state checkpoints are
// deltas, not bases.
func TestDeltaChainRecovery(t *testing.T) {
	c := newDeltaCluster(t, 3, 31, func(id int, cfg *Config) {
		// The toy machine's deltas rival its base in size, which would
		// (correctly) trigger size-fraction compaction every round;
		// disable it so this test observes a growing chain.
		cfg.MaxChainFraction = 100
	})
	const phase1 = 200
	for i := 0; i < phase1; i++ {
		// Spread over ~30 s so traffic spans three checkpoint rounds.
		c.submit(2*time.Second+time.Duration(i)*150*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%7), Delta: 1})
	}
	// Three checkpoint rounds (10 s interval) before the crash at 35 s.
	c.s.After(35*time.Second, func() {
		bases, deltas, _ := c.replicas[2].CheckpointStats()
		if bases != 1 || deltas < 2 {
			t.Errorf("steady state wrote %d bases / %d deltas, want 1 base and ≥2 deltas", bases, deltas)
		}
		c.s.Crash(2)
	})
	c.s.After(40*time.Second, func() { c.s.Restart(2) })
	const phase2 = 80
	for i := 0; i < phase2; i++ {
		c.submit(41*time.Second+time.Duration(i)*50*time.Millisecond, i%2,
			incAction{Key: fmt.Sprintf("k%d", i%7), Delta: 1})
	}
	c.s.RunFor(60 * time.Second)
	c.requireConverged(t, phase1+phase2)
	if !c.replicas[2].Recovered() {
		t.Fatal("node 2 never finished recovery")
	}
	// The chain restore must have carried the pre-crash prefix: the new
	// incarnation re-applies only the post-checkpoint suffix.
	if got := c.replicas[2].AppliedCount(); got >= phase1+phase2 {
		t.Errorf("node 2 re-applied the full history (%d ops); chain unused", got)
	}
}

// TestDeltaCompactionFoldsChain: the chain folds into a fresh base when
// it exceeds MaxDeltaChain, and the superseded layers are deleted.
func TestDeltaCompactionFoldsChain(t *testing.T) {
	c := newDeltaCluster(t, 3, 32, func(id int, cfg *Config) {
		cfg.CheckpointInterval = 5 * time.Second
		cfg.MaxDeltaChain = 2
	})
	const total = 300
	for i := 0; i < total; i++ {
		c.submit(2*time.Second+time.Duration(i)*150*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%5), Delta: 1})
	}
	c.s.RunFor(60 * time.Second)
	c.requireConverged(t, total)
	// ~10 checkpoint rounds with MaxDeltaChain=2: base, d0, d1, base, …
	bases, deltas, _ := c.replicas[0].CheckpointStats()
	if bases < 3 {
		t.Errorf("only %d bases written; compaction never triggered (deltas %d)", bases, deltas)
	}
	if deltas < bases {
		t.Errorf("%d deltas vs %d bases; chain never grew between compactions", deltas, bases)
	}
	// The first base and its chain layers must have been garbage
	// collected once a later compaction committed.
	gone := map[string]bool{}
	for _, name := range []string{baseLayerName(1), deltaLayerName(1, 0)} {
		name := name
		c.s.Storage(0).LoadSnapshot(name, func(_ env.Snapshot, ok bool) { gone[name] = !ok })
	}
	c.s.RunFor(2 * time.Second)
	for name, ok := range gone {
		if !ok {
			t.Errorf("superseded layer %q still on disk after compaction", name)
		}
	}
	if len(gone) != 2 {
		t.Fatalf("GC probes did not complete: %v", gone)
	}
	// A crash after several compactions still recovers cleanly.
	c.s.Crash(1)
	c.s.After(2*time.Second, func() { c.s.Restart(1) })
	c.s.RunFor(15 * time.Second)
	c.requireConverged(t, total)
}

// TestPartitionDropTruncatesChain: rows removed by an ordered
// PartitionDrop must not resurrect from a stale delta layer — neither
// when the next checkpoint runs before the crash (it must fold into a
// fresh base) nor when the crash comes first (the retained WAL suffix
// replays the drop).
func TestPartitionDropTruncatesChain(t *testing.T) {
	for _, ckptAfterDrop := range []bool{true, false} {
		c := newDeltaCluster(t, 3, 33, func(id int, cfg *Config) {
			cfg.CheckpointInterval = time.Hour // manual checkpoints only
		})
		const total = 60
		for i := 0; i < total; i++ {
			c.submit(2*time.Second+time.Duration(i)*50*time.Millisecond, i%3,
				incAction{Key: fmt.Sprintf("k%d", i%6), Delta: 1})
		}
		// Base, then a delta layer that contains the soon-dropped rows.
		c.s.After(6*time.Second, func() { c.replicas[0].Checkpoint(nil) })
		c.s.After(8*time.Second, func() { c.replicas[0].Checkpoint(nil) })
		// The ordered drop removes k0 and k1 everywhere.
		c.s.After(10*time.Second, func() {
			c.replicas[0].Submit(PartitionDrop{Epoch: 1, Owned: func(key string) bool {
				return key == "k0" || key == "k1"
			}}, nil)
		})
		if ckptAfterDrop {
			c.s.After(12*time.Second, func() { c.replicas[0].Checkpoint(nil) })
		}
		var basesBeforeCrash int64
		c.s.After(15*time.Second, func() { basesBeforeCrash, _, _ = c.replicas[0].CheckpointStats() })
		c.s.After(16*time.Second, func() { c.s.Crash(0) })
		c.s.After(18*time.Second, func() { c.s.Restart(0) })
		c.s.RunFor(40 * time.Second)

		if ckptAfterDrop && basesBeforeCrash < 2 {
			// The post-drop checkpoint must have folded into a fresh
			// base (chain truncation), not appended a delta.
			t.Errorf("ckptAfterDrop: %d bases before the crash, want 2 (initial + post-drop fold)",
				basesBeforeCrash)
		}
		for id, m := range c.machines {
			for _, k := range []string{"k0", "k1"} {
				if _, ok := m.counts[k]; ok {
					t.Errorf("ckptAfterDrop=%v: node %d resurrected dropped row %q = %d",
						ckptAfterDrop, id, k, m.counts[k])
				}
			}
		}
		if !c.replicas[0].Recovered() {
			t.Errorf("ckptAfterDrop=%v: node 0 never finished recovery", ckptAfterDrop)
		}
	}
}

// TestRemoteLayeredSnapshotStreamsMissingLayers: a replica whose needed
// log suffix was compacted everywhere falls back to a layered remote
// snapshot; a second fallback from the same peer base must ship only the
// delta layers the requester does not hold yet.
func TestRemoteLayeredSnapshotStreamsMissingLayers(t *testing.T) {
	c := newDeltaCluster(t, 3, 34, func(id int, cfg *Config) {
		cfg.CheckpointInterval = 3 * time.Second
		cfg.RetainInstances = 1 // compact aggressively
	})
	const phase1 = 60
	for i := 0; i < phase1; i++ {
		c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%5), Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.s.Crash(2) })
	const phase2 = 80
	for i := 0; i < phase2; i++ {
		c.submit(5*time.Second+time.Duration(i)*100*time.Millisecond, i%2,
			incAction{Key: fmt.Sprintf("k%d", i%5), Delta: 1})
	}
	// The survivors checkpoint and compact past node 2's horizon; its
	// first remote restore carries a base.
	c.s.After(20*time.Second, func() { c.s.Restart(2) })
	c.s.RunFor(35 * time.Second)
	c.requireConverged(t, phase1+phase2)
	if c.replicas[2].remoteBaseID == 0 {
		t.Fatal("node 2 recovered without a remote layered snapshot")
	}
	firstBase, firstLayers := c.replicas[2].remoteBaseID, c.replicas[2].remoteLayers

	// Knock it out again past the survivors' horizon: the second
	// fallback should extend the same remote base with only new layers.
	c.s.Crash(2)
	const phase3 = 80
	for i := 0; i < phase3; i++ {
		c.submit(time.Duration(i)*100*time.Millisecond, i%2,
			incAction{Key: fmt.Sprintf("k%d", i%5), Delta: 1})
	}
	c.s.After(15*time.Second, func() { c.s.Restart(2) })
	// Post-restore traffic: the restored replica's next periodic
	// checkpoint has something to write, so it folds into a fresh base
	// (its local chain was orphaned by the remote restore).
	const phase4 = 40
	for i := 0; i < phase4; i++ {
		c.submit(18*time.Second+time.Duration(i)*100*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%5), Delta: 1})
	}
	c.s.RunFor(30 * time.Second)
	c.requireConverged(t, phase1+phase2+phase3+phase4)
	if c.replicas[2].remoteBaseID == firstBase && c.replicas[2].remoteLayers <= firstLayers {
		t.Errorf("second fallback did not extend the chain: base %d layers %d → base %d layers %d",
			firstBase, firstLayers, c.replicas[2].remoteBaseID, c.replicas[2].remoteLayers)
	}
	// The remote restore orphaned node 2's local chain in memory; the
	// next local base write must garbage-collect those durable layers,
	// not leak them forever (node 2 checkpoints every 3 s here, so its
	// first post-restore fold has long since committed).
	leaked, probed := false, false
	c.s.Storage(2).LoadSnapshot(baseLayerName(1), func(_ env.Snapshot, ok bool) {
		leaked, probed = ok, true
	})
	c.s.RunFor(2 * time.Second)
	if !probed {
		t.Fatal("leak probe did not complete")
	}
	if leaked {
		t.Error("pre-crash base layer still on disk: remote restore leaked the superseded chain")
	}
}

// tornChainRun drives a fixed manual-checkpoint schedule on node 0 with a
// ~50 MB base (so base writes occupy the disk for over a second) and
// reports when the target checkpoint became durable. With crashAt > 0 the
// node is killed at that virtual offset and restarted 2 s later; the run
// then asserts recovery lands on a consistent (base, chain) prefix. The
// caller first records doneAt from an uncrashed run (the sim is
// deterministic per seed), then replays with the crash planted inside the
// exact write window under test.
//
// maxChain is Config.MaxDeltaChain. 0 (the default) targets the
// delta→manifest commit: the final checkpoint appends a delta layer (crash
// window: after the layer is durable, before the manifest is). 1 targets
// mid-compaction: the final checkpoint folds the one-layer chain into a
// big fresh base (crash window: while the base image is being written,
// manifest untouched). -1 makes every checkpoint a full base, and the
// final one replaces the first with the same crash window.
func tornChainRun(t *testing.T, maxChain int, crashAt time.Duration) (doneAt time.Duration, c *deltaCluster) {
	t.Helper()
	c = &deltaCluster{
		replicas: make([]*Replica, 3),
		machines: make([]*kvDeltaMachine, 3),
	}
	c.s = sim.New(sim.Config{Seed: 55})
	for i := 0; i < 3; i++ {
		id := i
		c.s.AddNode(func() env.Node {
			cfg := Config{
				CheckpointInterval: time.Hour, // manual checkpoints only
				MaxDeltaChain:      maxChain,
				MaxChainFraction:   100,
				Machine: func() StateMachine {
					m := newKVDeltaMachine()
					m.boost = 50 << 20
					c.machines[id] = m
					return m
				},
			}
			r := NewReplica(cfg)
			c.replicas[id] = r
			return r
		})
	}
	c.s.StartAll()
	start := c.s.Now()
	for i := 0; i < 40; i++ {
		c.submit(time.Second+time.Duration(i)*50*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%6), Delta: 1})
	}
	c.s.After(4*time.Second, func() { c.replicas[0].Checkpoint(nil) }) // base 1 (big)
	for i := 0; i < 40; i++ {
		c.submit(7*time.Second+time.Duration(i)*50*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%6), Delta: 1})
	}
	finalAt := 10 * time.Second
	if maxChain == 1 {
		// An intermediate delta fills the chain to MaxDeltaChain, so the
		// final checkpoint is a compaction.
		c.s.After(10*time.Second, func() { c.replicas[0].Checkpoint(nil) })
		for i := 0; i < 40; i++ {
			c.submit(12*time.Second+time.Duration(i)*50*time.Millisecond, i%3,
				incAction{Key: fmt.Sprintf("k%d", i%6), Delta: 1})
		}
		finalAt = 15 * time.Second
	}
	c.s.After(finalAt, func() {
		c.replicas[0].Checkpoint(func() { doneAt = c.s.Now().Sub(start) })
	})
	if crashAt > 0 {
		c.s.After(crashAt, func() { c.s.Crash(0) })
		c.s.After(crashAt+2*time.Second, func() { c.s.Restart(0) })
	}
	c.s.RunFor(finalAt + 15*time.Second)
	return doneAt, c
}

// TestCrashBetweenDeltaAndManifest: a crash after the delta layer is
// durable but before the manifest commits must leave the previous chain
// in force — the orphan layer is never half-adopted — and recovery plus
// WAL replay reconverges.
func TestCrashBetweenDeltaAndManifest(t *testing.T) {
	doneAt, _ := tornChainRun(t, 0, 0)
	if doneAt == 0 {
		t.Fatal("recording run: final checkpoint never completed")
	}
	// The manifest write costs at least one disk sync (4 ms); 2 ms before
	// completion the delta layer is durable and the manifest is not.
	_, c := tornChainRun(t, 0, doneAt-2*time.Millisecond)
	total := int64(80)
	c.requireConverged(t, total)
	if !c.replicas[0].Recovered() {
		t.Fatal("node 0 never finished recovery")
	}
	// The restored manifest must be the pre-checkpoint one: base only, no
	// delta layer adopted (the orphan stayed orphaned).
	if n := len(c.replicas[0].chain); n != 0 {
		t.Errorf("recovered chain has %d layers, want 0 (manifest never committed)", n)
	}
	// Pin the window: the delta layer itself must have been durable at
	// the crash — otherwise this run exercised an earlier, easier crash
	// point, not the layer/manifest gap.
	orphan := false
	probed := false
	c.s.Storage(0).LoadSnapshot(deltaLayerName(1, 0), func(_ env.Snapshot, ok bool) {
		orphan, probed = ok, true
	})
	c.s.RunFor(2 * time.Second)
	if !probed {
		t.Fatal("orphan probe did not complete")
	}
	if !orphan {
		t.Error("delta layer not durable at crash time; the test missed the layer→manifest window")
	}
}

// TestCrashMidCompaction: a crash while a fresh base image is being
// written must leave the old (base, chain) pair in force; the half-written
// base is never referenced. The base is a compaction of a one-layer chain,
// or the next of a base written at every checkpoint.
func TestCrashMidCompaction(t *testing.T) {
	for _, tc := range []struct {
		maxChain int
		total    int64 // actions submitted
		layers   int   // chain length of the checkpoint in force
	}{
		{maxChain: 1, total: 120, layers: 1},
		{maxChain: -1, total: 80, layers: 0},
	} {
		doneAt, _ := tornChainRun(t, tc.maxChain, 0)
		if doneAt == 0 {
			t.Fatalf("MaxDeltaChain %d: recording run: final base never completed", tc.maxChain)
		}
		// The 50 MB base write occupies the disk for ~1.1 s before the
		// manifest write even starts: 600 ms before completion is safely
		// inside the base image write.
		_, c := tornChainRun(t, tc.maxChain, doneAt-600*time.Millisecond)
		c.requireConverged(t, tc.total)
		r := c.replicas[0]
		if !r.Recovered() {
			t.Fatalf("MaxDeltaChain %d: node 0 never finished recovery", tc.maxChain)
		}
		if r.baseName != baseLayerName(1) || len(r.chain) != tc.layers {
			t.Errorf("MaxDeltaChain %d: recovered onto base %q with %d layers, want the previous checkpoint (%q + %d)",
				tc.maxChain, r.baseName, len(r.chain), baseLayerName(1), tc.layers)
		}
	}
}

// TestDeltaWholeGroupCrashRecovers: every member of the group crashes and
// restarts together — recovery must come entirely from local delta chains
// plus each member's own WAL, with no live peer to lean on.
func TestDeltaWholeGroupCrashRecovers(t *testing.T) {
	c := newDeltaCluster(t, 3, 21, nil)
	const phase1 = 120
	for i := 0; i < phase1; i++ {
		c.submit(2*time.Second+time.Duration(i)*100*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%9), Delta: 1})
	}
	// Several checkpoint rounds (10 s interval), then the whole group dies.
	c.s.After(25*time.Second, func() {
		for id := 0; id < 3; id++ {
			c.s.Crash(env.NodeID(id))
		}
	})
	c.s.After(35*time.Second, func() {
		for id := 0; id < 3; id++ {
			c.s.Restart(env.NodeID(id))
		}
	})
	const phase2 = 60
	for i := 0; i < phase2; i++ {
		c.submit(40*time.Second+time.Duration(i)*100*time.Millisecond, i%3,
			incAction{Key: fmt.Sprintf("k%d", i%9), Delta: 1})
	}
	c.s.RunFor(70 * time.Second)
	c.requireConverged(t, phase1+phase2)
	for id := 0; id < 3; id++ {
		if !c.replicas[id].Recovered() {
			t.Errorf("node %d never finished recovery", id)
		}
	}
}

// failingStorage is a node's storage whose SaveSnapshot fails for the
// names fail picks: nothing is written and the completion reports an
// error.
type failingStorage struct {
	env.Storage
	e    env.Env
	fail func(name string) bool
}

func (s failingStorage) SaveSnapshot(name string, snap env.Snapshot, done func(error)) {
	if !s.fail(name) {
		s.Storage.SaveSnapshot(name, snap, done)
		return
	}
	s.e.Post(func() {
		if done != nil {
			done(errors.New("injected write failure"))
		}
	})
}

// failingEnv hands its node a failingStorage.
type failingEnv struct {
	env.Env
	storage failingStorage
}

func (e failingEnv) Storage() env.Storage { return e.storage }

// failingNode starts its replica on a failingEnv, every incarnation.
type failingNode struct {
	*Replica
	fail func(name string) bool
}

func (n failingNode) Start(e env.Env) {
	n.Replica.Start(failingEnv{Env: e, storage: failingStorage{Storage: e.Storage(), e: e, fail: n.fail}})
}

// TestFailedCheckpointWriteKeepsPreviousCheckpoint: a checkpoint whose
// delta layer write, or whose manifest write, fails commits nothing — the
// durable manifest never names the layer, the replica adopts no chain,
// the completion still runs and the next checkpoint must be a base — and a
// restart recovers from the checkpoint before it.
func TestFailedCheckpointWriteKeepsPreviousCheckpoint(t *testing.T) {
	layer := deltaLayerName(1, 1) // the second delta on the first base
	afterLayer := false           // the previous save was that layer
	for _, tc := range []struct {
		what string
		fail func(name string) bool
	}{
		{"layer", func(name string) bool { return name == layer }},
		{"manifest", func(name string) bool {
			fail := afterLayer && name == "meta"
			afterLayer = name == layer
			return fail
		}},
	} {
		c := &deltaCluster{replicas: make([]*Replica, 3), machines: make([]*kvDeltaMachine, 3)}
		c.s = sim.New(sim.Config{Seed: 56})
		fail := tc.fail
		for i := 0; i < 3; i++ {
			id := i
			c.s.AddNode(func() env.Node {
				r := NewReplica(Config{
					CheckpointInterval: time.Hour, // manual checkpoints only
					MaxChainFraction:   100,
					Machine: func() StateMachine {
						m := newKVDeltaMachine()
						c.machines[id] = m
						return m
					},
				})
				c.replicas[id] = r
				if id == 0 {
					return failingNode{Replica: r, fail: fail}
				}
				return r
			})
		}
		c.s.StartAll()
		for round, at := range []time.Duration{4 * time.Second, 8 * time.Second, 12 * time.Second} {
			for i := 0; i < 40; i++ {
				c.submit(at-3*time.Second+time.Duration(i)*50*time.Millisecond, i%3,
					incAction{Key: fmt.Sprintf("k%d", i%6), Delta: int64(1 + round)})
			}
			// Base 1, delta 1.0, then delta 1.1, whose write fails.
			c.s.After(at, func() { c.replicas[0].Checkpoint(nil) })
		}
		completed := false
		c.s.After(12*time.Second, func() {
			c.replicas[0].Checkpoint(func() { completed = true })
		})
		var durable metaSnap
		c.s.After(13*time.Second, func() {
			r := c.replicas[0]
			if !completed {
				t.Errorf("%s: the failed checkpoint never ran its completion", tc.what)
			}
			if r.checkpointing || !r.forceBase || len(r.chain) != 1 {
				t.Errorf("%s: after the failure checkpointing=%v forceBase=%v chain=%d, want false, true, 1",
					tc.what, r.checkpointing, r.forceBase, len(r.chain))
			}
			c.s.Storage(0).LoadSnapshot("meta", func(snap env.Snapshot, _ bool) { durable, _ = snap.Data.(metaSnap) })
		})
		c.s.After(14*time.Second, func() { c.s.Crash(0) })
		c.s.After(16*time.Second, func() { c.s.Restart(0) })
		c.s.RunFor(40 * time.Second)

		for _, ref := range durable.Chain {
			if ref.Name == layer {
				t.Errorf("%s: the durable manifest names %q, whose write failed", tc.what, layer)
			}
		}
		if durable.Base != baseLayerName(1) || len(durable.Chain) != 1 {
			t.Errorf("%s: durable manifest %+v, want %q and one delta", tc.what, durable, baseLayerName(1))
		}
		c.requireConverged(t, 120)
		r := c.replicas[0]
		if !r.Recovered() {
			t.Fatalf("%s: node 0 never finished recovery", tc.what)
		}
		if r.baseName != baseLayerName(1) || len(r.chain) != 1 || r.chain[0].Name != deltaLayerName(1, 0) {
			t.Errorf("%s: recovered onto base %q with chain %v, want %q + %q",
				tc.what, r.baseName, r.chain, baseLayerName(1), deltaLayerName(1, 0))
		}
	}
}
