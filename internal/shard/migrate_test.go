package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/livenet"
	"robuststore/internal/paxos"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
)

// kvMachine is a keyed counter machine with the partition-migration
// capability: state is key → applied-action count, exports/imports/drops
// are keyed map operations (idempotent upserts, as the contract
// requires). It makes lost or duplicated actions directly observable.
type kvMachine struct {
	counts map[string]int64
}

func newKVMachine() *kvMachine { return &kvMachine{counts: map[string]int64{}} }

// kvAction increments one key's counter.
type kvAction struct{ Key string }

func (m *kvMachine) Execute(action any) any {
	a := action.(kvAction)
	m.counts[a.Key]++
	return m.counts[a.Key]
}

func (m *kvMachine) Snapshot() (any, int64) {
	cp := make(map[string]int64, len(m.counts))
	for k, v := range m.counts {
		cp[k] = v
	}
	return cp, int64(24 * len(cp))
}

func (m *kvMachine) Restore(data any) {
	m.counts = map[string]int64{}
	for k, v := range data.(map[string]int64) {
		m.counts[k] = v
	}
}

func (m *kvMachine) ExportOwned(owned func(string) bool) (any, int64) {
	out := map[string]int64{}
	for k, v := range m.counts {
		if owned(k) {
			out[k] = v
		}
	}
	return out, int64(24 * len(out))
}

func (m *kvMachine) ImportOwned(data any) {
	for k, v := range data.(map[string]int64) {
		m.counts[k] = v // idempotent keyed upsert
	}
}

func (m *kvMachine) DropOwned(owned func(string) bool) {
	for k := range m.counts {
		if owned(k) {
			delete(m.counts, k)
		}
	}
}

var _ core.PartitionedMachine = (*kvMachine)(nil)

func (m *kvMachine) countsMap() map[string]int64 { return m.counts }

// counted lets the audit read any keyed-counter machine's state.
type counted interface{ countsMap() map[string]int64 }

// kvDeltaMachine is kvMachine plus the incremental-checkpoint capability
// (core.DeltaSnapshotter), so the migration suite can run with delta
// chains active: dirty-key tracking, delta capture/merge, and chain
// poisoning on DropOwned.
type kvDeltaMachine struct {
	kvMachine
	dirty    map[string]struct{}
	anchored bool
	dropped  bool
}

func newKVDeltaMachine() *kvDeltaMachine {
	return &kvDeltaMachine{
		kvMachine: kvMachine{counts: map[string]int64{}},
		dirty:     map[string]struct{}{},
	}
}

func (m *kvDeltaMachine) Execute(action any) any {
	if a, ok := action.(kvAction); ok {
		m.dirty[a.Key] = struct{}{}
	}
	return m.kvMachine.Execute(action)
}

func (m *kvDeltaMachine) Snapshot() (any, int64) {
	m.dirty, m.anchored, m.dropped = map[string]struct{}{}, true, false
	return m.kvMachine.Snapshot()
}

func (m *kvDeltaMachine) Restore(data any) {
	m.kvMachine.Restore(data)
	m.dirty, m.anchored, m.dropped = map[string]struct{}{}, true, false
}

func (m *kvDeltaMachine) SnapshotDelta() (any, int64, bool) {
	if !m.anchored || m.dropped {
		return nil, 0, false
	}
	cp := make(map[string]int64, len(m.dirty))
	for k := range m.dirty {
		if v, ok := m.counts[k]; ok {
			cp[k] = v
		}
	}
	m.dirty = map[string]struct{}{}
	return cp, int64(24 * len(cp)), true
}

func (m *kvDeltaMachine) ApplyDelta(data any) {
	for k, v := range data.(map[string]int64) {
		m.counts[k] = v
	}
	m.dirty, m.anchored, m.dropped = map[string]struct{}{}, true, false
}

func (m *kvDeltaMachine) ImportOwned(data any) {
	m.kvMachine.ImportOwned(data)
	for k := range data.(map[string]int64) {
		m.dirty[k] = struct{}{}
	}
}

func (m *kvDeltaMachine) DropOwned(owned func(string) bool) {
	m.kvMachine.DropOwned(owned)
	m.dropped = true
}

var _ core.PartitionedMachine = (*kvDeltaMachine)(nil)
var _ core.DeltaSnapshotter = (*kvDeltaMachine)(nil)

// rebalanceUnderLoad runs the 2→3 migration scenario: a 2-group store
// takes steady keyed load, Rebalance adds group 2 mid-run, and the load
// continues across the cutover. It returns the store, the per-key acked
// counts, and the observed migration status.
func rebalanceUnderLoad(t *testing.T, seed uint64, crashPhase string) (*Store, *sim.Sim, map[string]int64) {
	t.Helper()
	const keys, actions = 40, 600
	s := sim.New(sim.Config{Seed: seed})
	store := New(s, Config{
		Shards:  2,
		Machine: func(int) core.StateMachine { return newKVMachine() },
		Core:    core.Config{CheckpointInterval: 2 * time.Second},
	})
	s.StartAll()

	acked := map[string]int64{}
	for i := 0; i < actions; i++ {
		key := fmt.Sprintf("key/%d", i%keys)
		at := time.Second + time.Duration(i*10)*time.Millisecond
		s.At(s.Now().Add(at), func() {
			store.Submit(key, kvAction{Key: key}, func(result any, err error) {
				if err == nil {
					acked[key]++
				}
			})
		})
	}

	rebalanced := false
	var rebalanceErr error
	s.At(s.Now().Add(2500*time.Millisecond), func() {
		store.Rebalance(RebalanceOptions{
			OnPhase: func(phase string) {
				if crashPhase != "" && phase == crashPhase {
					// Kill one member of source group 0 mid-migration.
					s.Crash(store.Group(0).Members()[0])
				}
			},
			Done: func(err error) { rebalanced, rebalanceErr = true, err },
		})
	})
	s.RunFor(30 * time.Second)
	if !rebalanced || rebalanceErr != nil {
		t.Fatalf("rebalance did not complete: done=%v err=%v (phase %s)",
			rebalanced, rebalanceErr, store.Migration().Phase)
	}
	return store, s, acked
}

// auditKV checks the zero-loss/zero-duplication invariant: for every key,
// the owning group's count equals the acked submissions, and no other
// group still holds the key (post-drop).
func auditKV(t *testing.T, store *Store, acked map[string]int64) {
	t.Helper()
	table := store.Table()
	for key, want := range acked {
		owner := table.Group(key)
		for g := 0; g < store.Shards(); g++ {
			m := store.Group(g).Replica(0).Machine().(counted).countsMap()
			got, present := m[key]
			switch {
			case g == owner && got != want:
				t.Errorf("%s: owner group %d has count %d, %d acked (lost or duplicated)",
					key, g, got, want)
			case g != owner && present:
				t.Errorf("%s: stale copy (count %d) left on group %d, owner is %d",
					key, got, g, owner)
			}
		}
	}
	// All members of every group agree (replicated state converged).
	for g := 0; g < store.Shards(); g++ {
		ref := store.Group(g).Replica(0).Machine().(counted).countsMap()
		for m := 1; m < 3; m++ {
			other := store.Group(g).Replica(m).Machine().(counted).countsMap()
			if len(other) != len(ref) {
				t.Fatalf("group %d member %d holds %d keys, member 0 holds %d",
					g, m, len(other), len(ref))
			}
			for k, v := range ref {
				if other[k] != v {
					t.Fatalf("group %d member %d diverges on %s: %d vs %d", g, m, k, other[k], v)
				}
			}
		}
	}
}

// TestRebalanceZeroLossUnderLoad is the core migration guarantee: a
// 2-group store under steady keyed load grows to 3 groups live, and every
// acked action is counted exactly once on the key's (new) owning group —
// nothing lost in the handoff, nothing applied twice, no stale copies
// after cleanup.
func TestRebalanceZeroLossUnderLoad(t *testing.T) {
	store, _, acked := rebalanceUnderLoad(t, 21, "")
	if store.Shards() != 3 {
		t.Fatalf("store has %d groups after rebalance, want 3", store.Shards())
	}
	if store.Epoch() != 1 {
		t.Fatalf("published epoch = %d, want 1", store.Epoch())
	}
	st := store.Migration()
	if st.Window() <= 0 {
		t.Errorf("migration window not measured: %+v", st)
	}
	if st.MovedSlices == 0 || st.MovedSlices != st.TotalSlices/3 {
		t.Errorf("moved %d of %d slices, want a third", st.MovedSlices, st.TotalSlices)
	}
	// The new group must actually own keys and have applied actions.
	moved := 0
	for key := range acked {
		if store.Table().Group(key) == 2 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no test key moved to the new group")
	}
	auditKV(t, store, acked)
}

// TestRebalanceSurvivesCrashMidMigration crashes one member of a source
// group in the middle of the copy phase: the retry sweeps and idempotent
// imports must carry the migration to completion with the same zero-loss
// guarantee (the group keeps its quorum).
func TestRebalanceSurvivesCrashMidMigration(t *testing.T) {
	store, s, acked := rebalanceUnderLoad(t, 33, PhaseCopy)
	// Restart the victim and let it converge before auditing all members.
	s.At(s.Now(), func() { s.Restart(store.Group(0).Members()[0]) })
	s.RunFor(15 * time.Second)
	if store.Shards() != 3 {
		t.Fatalf("store has %d groups after rebalance, want 3", store.Shards())
	}
	auditKV(t, store, acked)
}

// TestRebalanceRoutingOnlyForPlainMachines: a machine without the
// partition capability still migrates routing (new keys land on the new
// group); the old rows stay where they were.
func TestRebalanceRoutingOnlyForPlainMachines(t *testing.T) {
	s := sim.New(sim.Config{Seed: 5})
	store := New(s, Config{
		Shards:  2,
		Machine: func(int) core.StateMachine { return &seqMachine{} },
	})
	s.StartAll()
	done := false
	s.At(s.Now().Add(time.Second), func() {
		store.Rebalance(RebalanceOptions{Done: func(err error) { done = err == nil }})
	})
	s.RunFor(20 * time.Second)
	if !done {
		t.Fatalf("routing-only rebalance did not complete: %+v", store.Migration())
	}
	if store.Shards() != 3 || store.Table().Groups() != 3 {
		t.Fatalf("expected 3 routed groups, got %d/%d", store.Shards(), store.Table().Groups())
	}
	// New submissions to keys owned by group 2 apply there.
	var hit bool
	for i := 0; i < 200 && !hit; i++ {
		key := fmt.Sprintf("fresh/%d", i)
		if store.Table().Group(key) == 2 {
			hit = true
			applied := false
			s.At(s.Now(), func() {
				store.Submit(key, "x", func(result any, err error) { applied = err == nil })
			})
			s.RunFor(5 * time.Second)
			if !applied {
				t.Fatalf("submission to new group's key %s did not apply", key)
			}
			if n := len(store.Group(2).Replica(0).Machine().(*seqMachine).log); n == 0 {
				t.Fatal("new group applied nothing")
			}
		}
	}
	if !hit {
		t.Fatal("no key routed to the new group")
	}
}

// TestDuplicateImportDoesNotRevertNewerWrites pins the at-most-once
// import guard: the migration driver's retry sweep can get a stale copy
// of a PartitionImport ordered after cutover, behind writes that already
// advanced the moved rows — the duplicate must be skipped, not blindly
// re-upsert the snapshot over them.
func TestDuplicateImportDoesNotRevertNewerWrites(t *testing.T) {
	s := sim.New(sim.Config{Seed: 17})
	store := New(s, Config{
		Shards:  1,
		Machine: func(int) core.StateMachine { return newKVMachine() },
	})
	s.StartAll()
	s.RunFor(2 * time.Second)

	imp := core.PartitionImport{
		Epoch: 1, Source: 0,
		Data: map[string]int64{"moved/key": 5}, Size: 24,
	}
	r := store.Group(0).Replica(0)
	s.At(s.Now(), func() {
		r.Submit(imp, nil)                                         // the transfer lands
		store.Submit("moved/key", kvAction{Key: "moved/key"}, nil) // post-cutover write → 6
		r.Submit(imp, nil)                                         // stale duplicate, ordered last
	})
	s.RunFor(5 * time.Second)

	for m := 0; m < 3; m++ {
		got := store.Group(0).Replica(m).Machine().(*kvMachine).counts["moved/key"]
		if got != 6 {
			t.Fatalf("member %d: count = %d, want 6 (stale duplicate import reverted a newer write)", m, got)
		}
	}

	// A checkpointed-and-restarted member must remember the guard too.
	victim := store.Group(0).Members()[2]
	done := false
	s.At(s.Now(), func() { checkpointAll(store, func() { done = true }) })
	s.RunFor(5 * time.Second)
	if !done {
		t.Fatal("checkpoint did not complete")
	}
	s.Crash(victim)
	s.RunFor(time.Second)
	s.Restart(victim)
	s.RunFor(5 * time.Second)
	s.At(s.Now(), func() {
		store.Group(0).Replica(2).Submit(imp, nil) // duplicate after recovery
	})
	s.RunFor(5 * time.Second)
	for m := 0; m < 3; m++ {
		got := store.Group(0).Replica(m).Machine().(*kvMachine).counts["moved/key"]
		if got != 6 {
			t.Fatalf("member %d after recovery: count = %d, want 6 (dedup set lost across checkpoint)", m, got)
		}
	}
}

// TestRebalanceLivenet drives the same migration on the live runtime
// (real goroutines, wall clock): Execute-based load keeps flowing while
// the store grows 2→3 groups, and the zero-loss audit holds. This pins
// the cross-goroutine half of the protocol (freeze/in-flight drain,
// SubmitFrom hops, atomic table publication).
func TestRebalanceLivenet(t *testing.T) {
	cluster := livenet.New(livenet.Config{Latency: 100 * time.Microsecond})
	defer cluster.Close()
	store := New(cluster, Config{
		Shards: 2,
		// The delta-capable machine puts incremental checkpoints (chain
		// writes, compaction, manifest recovery) on the live runtime's
		// race-tested path, migration and crash/restart included.
		Machine: func(int) core.StateMachine { return newKVDeltaMachine() },
		Core: core.Config{
			CheckpointInterval: time.Second,
			Paxos: paxos.Config{
				HeartbeatInterval: 20 * time.Millisecond,
				LeaderTimeout:     150 * time.Millisecond,
				SweepInterval:     10 * time.Millisecond,
				BatchDelay:        time.Millisecond,
			},
		},
	})
	cluster.StartAll()

	// 8 s covers the whole traffic phase; it also bounds how long a
	// worker whose in-flight ack died with the crashed member stays
	// blocked before the audit.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	const workers, keysPerWorker = 8, 4
	acked := make([]map[string]int64, workers)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		acked[w] = map[string]int64{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("key/%d", w*keysPerWorker+i%keysPerWorker)
				if _, err := store.Execute(ctx, key, kvAction{Key: key}); err == nil {
					acked[w][key]++
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	done := make(chan error, 1)
	store.Rebalance(RebalanceOptions{Done: func(err error) { done <- err }})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("rebalance failed: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("rebalance did not complete: %+v", store.Migration())
	}
	time.Sleep(300 * time.Millisecond) // post-cutover traffic on the new group

	// Crash and restart one source member: its recovery replays the
	// delta chain written across the migration (the drop included).
	victim := store.Group(0).Members()[0]
	cluster.Crash(victim)
	time.Sleep(200 * time.Millisecond)
	cluster.Restart(victim)
	time.Sleep(500 * time.Millisecond)

	close(stop)
	wg.Wait()
	time.Sleep(500 * time.Millisecond) // let replicas converge

	if store.Shards() != 3 || store.Epoch() != 1 {
		t.Fatalf("store did not grow: shards=%d epoch=%d", store.Shards(), store.Epoch())
	}
	total := map[string]int64{}
	for _, m := range acked {
		for k, v := range m {
			total[k] += v
		}
	}
	table := store.Table()
	for key, want := range total {
		owner := table.Group(key)
		r := store.Group(owner).pick()
		if r == nil {
			t.Fatalf("group %d has no ready member", owner)
		}
		// Read through the owning group's executor for a loop-safe view.
		got := make(chan int64, 1)
		if !r.Inspect(func(sm core.StateMachine) { got <- sm.(counted).countsMap()[key] }) {
			t.Fatalf("cannot inspect group %d", owner)
		}
		// Every acked action must be applied exactly once. The crash may
		// eat one in-flight ack per key (applied, never acknowledged) —
		// at-most-once submission semantics allow that; anything beyond
		// is duplication.
		if g := <-got; g < want || g > want+1 {
			t.Errorf("%s: owner group %d counts %d, %d acked (lost or duplicated)", key, owner, g, want)
		}
	}
}

// TestRebalancePopulatedBookstore is the acceptance scenario on real
// state: a 2-group store populated with the TPC-W bookstore takes item
// updates routed by row key while growing to 3 groups; afterwards every
// item's latest acked cost is served by its new owning group and every
// replica's store passes the consistency audit.
func TestRebalancePopulatedBookstore(t *testing.T) {
	const items = 60
	s := sim.New(sim.Config{Seed: 13})
	store := New(s, Config{
		Shards: 2,
		Machine: func(int) core.StateMachine {
			// Same catalog on every group: the items are soft-replicated,
			// rows diverge by each group's own ordered writes.
			return tpcw.Populate(tpcw.PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 7})
		},
		Core: core.Config{CheckpointInterval: 2 * time.Second, ActionSize: tpcw.ActionSize},
	})
	s.StartAll()

	lastCost := map[tpcw.ItemID]float64{}
	now := s.Now()
	for i := 0; i < 400; i++ {
		item := tpcw.ItemID(i%items + 1)
		key := fmt.Sprintf("item/%d", item)
		cost := 10 + float64(i)
		at := time.Second + time.Duration(i*12)*time.Millisecond
		s.At(now.Add(at), func() {
			store.Submit(key, tpcw.AdminUpdateAction{
				Item: item, Cost: cost, Image: "i", Thumbnail: "t", Now: s.Now(),
			}, func(result any, err error) {
				if err == nil {
					lastCost[item] = cost
				}
			})
		})
	}
	done := false
	s.At(now.Add(2500*time.Millisecond), func() {
		store.Rebalance(RebalanceOptions{Done: func(err error) { done = err == nil }})
	})
	s.RunFor(30 * time.Second)
	if !done {
		t.Fatalf("rebalance did not complete: %+v", store.Migration())
	}

	table := store.Table()
	movedToNew := 0
	for item, want := range lastCost {
		key := fmt.Sprintf("item/%d", item)
		owner := table.Group(key)
		if owner == 2 {
			movedToNew++
		}
		bs := store.Group(owner).Replica(0).Machine().(*tpcw.Store)
		got, ok := bs.GetBook(item)
		if !ok {
			t.Fatalf("item %d missing on its owning group %d", item, owner)
		}
		if got.Cost != want {
			t.Errorf("item %d on group %d: cost %.0f, want %.0f (update lost in handoff)",
				item, owner, got.Cost, want)
		}
	}
	if movedToNew == 0 {
		t.Fatal("no updated item moved to the new group")
	}
	for g := 0; g < store.Shards(); g++ {
		for m := 0; m < 3; m++ {
			bs := store.Group(g).Replica(m).Machine().(*tpcw.Store)
			if bad := bs.VerifyConsistency(); len(bad) > 0 {
				t.Fatalf("group %d member %d fails the consistency audit: %v", g, m, bad)
			}
		}
	}
}

// TestRebalanceThenCrashDoesNotResurrectDroppedRows is the incremental-
// checkpoint regression for live migration: with delta chains active
// (short checkpoint interval, so pre-migration layers still hold the
// moved rows), a source member that crashes after the cutover must
// recover without resurrecting the rows PartitionDrop removed — the drop
// either forced a fresh base or replays from the retained WAL suffix.
func TestRebalanceThenCrashDoesNotResurrectDroppedRows(t *testing.T) {
	const keys, actions = 40, 600
	s := sim.New(sim.Config{Seed: 47})
	store := New(s, Config{
		Shards:  2,
		Machine: func(int) core.StateMachine { return newKVDeltaMachine() },
		// The toy machine's deltas rival its base in size, which would
		// fold the chain at every checkpoint; keep chains long so the
		// pre-drop layers (the resurrection vector under test) are still
		// referenced when the crash hits.
		Core: core.Config{
			CheckpointInterval: 2 * time.Second,
			MaxDeltaChain:      64,
			MaxChainFraction:   1000,
		},
	})
	s.StartAll()

	acked := map[string]int64{}
	for i := 0; i < actions; i++ {
		key := fmt.Sprintf("key/%d", i%keys)
		at := time.Second + time.Duration(i*10)*time.Millisecond
		s.At(s.Now().Add(at), func() {
			store.Submit(key, kvAction{Key: key}, func(result any, err error) {
				if err == nil {
					acked[key]++
				}
			})
		})
	}
	// A second traffic wave keeps every group applying well past the
	// cutover, so post-drop delta checkpoints definitely commit before
	// the crash — the exact layers a stale chain would resurrect from.
	for i := 0; i < actions; i++ {
		key := fmt.Sprintf("key/%d", i%keys)
		at := 8*time.Second + time.Duration(i*10)*time.Millisecond
		s.At(s.Now().Add(at), func() {
			store.Submit(key, kvAction{Key: key}, func(result any, err error) {
				if err == nil {
					acked[key]++
				}
			})
		})
	}
	rebalanced := false
	s.At(s.Now().Add(2500*time.Millisecond), func() {
		store.Rebalance(RebalanceOptions{Done: func(err error) { rebalanced = err == nil }})
	})
	// Well after the cutover (and at least one post-drop checkpoint
	// round), crash two members of each source group and bring them back:
	// their recovery runs through base + delta layers written before the
	// drop, which must not re-introduce the moved rows.
	s.At(s.Now().Add(16*time.Second), func() {
		for g := 0; g < 2; g++ {
			for m := 0; m < 2; m++ {
				s.Crash(store.Group(g).Members()[m])
			}
		}
	})
	s.At(s.Now().Add(19*time.Second), func() {
		for g := 0; g < 2; g++ {
			for m := 0; m < 2; m++ {
				s.Restart(store.Group(g).Members()[m])
			}
		}
	})
	s.RunFor(40 * time.Second)
	if !rebalanced || store.Shards() != 3 {
		t.Fatalf("rebalance incomplete: done=%v shards=%d", rebalanced, store.Shards())
	}
	auditKV(t, store, acked)
}
