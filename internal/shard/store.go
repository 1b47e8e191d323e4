package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
)

// Runtime is the slice of a node runtime the store needs: registering
// member nodes, booting late-added ones (live scale-out), observing
// liveness, and the runtime's scheduler and clock — virtual time on the
// simulator, the wall clock on livenet; the checkpoint sweep and the
// migration stamp and wait through them alone, so simulated runs stay
// deterministic. Both *sim.Sim and *livenet.Cluster satisfy it.
type Runtime interface {
	AddNode(factory func() env.Node) env.NodeID
	Restart(id env.NodeID)
	Alive(id env.NodeID) bool
	After(d time.Duration, fn func())
	Now() time.Time
}

// Config parameterizes a sharded store.
type Config struct {
	// Shards is the number of independent Paxos groups. Default 1 — the
	// degenerate configuration, which behaves exactly like an unsharded
	// core.Replica cluster.
	Shards int

	// Replicas is the replication degree of each group. Default 3.
	Replicas int

	// Machine builds a fresh state machine for one incarnation of one
	// member of the given shard. Each shard is an independent partition:
	// machines of different shards never see each other's actions. The
	// factory must also accept shard indices ≥ Shards — Rebalance adds
	// groups live. Required.
	Machine func(shard int) core.StateMachine

	// Core is the per-replica configuration template. Its Machine field
	// is ignored (the store installs its own per-shard factory) and
	// Paxos.Members is owned by the store (each group gets its disjoint
	// member set).
	Core core.Config
}

func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 3
	}
	return c
}

// ErrNoReplica is returned when the owning group has no live, ready
// member to take a submission.
var ErrNoReplica = errors.New("shard: no ready replica in owning group")

// Store hosts Shards × Replicas core.Replica instances behind a single
// key-routed facade. Node IDs are allocated group-major: group g owns the
// g-th contiguous run of Replicas IDs, so a 1-shard store produces the
// same node layout as hand-built unsharded deployments.
//
// Routing is explicit, epoch-versioned state: the store publishes a
// RoutingTable (epoch 0 reproduces the historical hash%N mapping bit for
// bit) and Rebalance produces the next epoch by adding a group and live-
// migrating the moving hash slices to it (see rebalance.go).
type Store struct {
	cfg Config
	rt  Runtime

	table  atomic.Pointer[RoutingTable]
	groups atomic.Pointer[[]*Group]
	mig    atomic.Pointer[storeMigration]

	// rebalMu serializes Rebalance calls: the active-migration check,
	// new-group registration and group-list publication must be one
	// atomic step (Rebalance is callable from any goroutine).
	rebalMu sync.Mutex

	// drainPhase selects which in-flight counter Execute charges (0/1).
	// A migration freeze flips it, then waits only for the pre-freeze
	// counter to drain — new traffic lands on the other counter, so the
	// wait is bounded even under sustained load on non-moving keys.
	drainPhase atomic.Int32
}

// Group is one Paxos group (one shard): a fixed member set whose current
// replica incarnations are tracked as the runtime restarts them.
type Group struct {
	store *Store
	shard int
	ids   []env.NodeID
	reps  []atomic.Pointer[core.Replica]

	// inflight counts Execute calls currently submitted against this
	// group, split by the store's drain phase; the migration drain waits
	// for the pre-freeze phase's counter to reach zero after the routing
	// freeze, so no pre-freeze submission can slip past the barrier.
	inflight [2]atomic.Int64
}

// New registers all member nodes of a sharded store with the runtime.
// Call the runtime's StartAll afterwards, as with hand-built nodes.
func New(rt Runtime, cfg Config) *Store {
	cfg = cfg.withDefaults()
	if cfg.Machine == nil {
		panic("shard: Config.Machine is required")
	}
	s := &Store{cfg: cfg, rt: rt}
	t := NewRoutingTable(cfg.Shards)
	s.table.Store(&t)
	groups := make([]*Group, 0, cfg.Shards)
	for g := 0; g < cfg.Shards; g++ {
		groups = append(groups, s.buildGroup(g))
	}
	s.groups.Store(&groups)
	return s
}

// buildGroup registers one group's member nodes with the runtime.
func (s *Store) buildGroup(g int) *Group {
	grp := &Group{store: s, shard: g}
	grp.reps = make([]atomic.Pointer[core.Replica], s.cfg.Replicas)
	for m := 0; m < s.cfg.Replicas; m++ {
		shard, member := g, m
		id := s.rt.AddNode(func() env.Node {
			return grp.newReplica(shard, member)
		})
		grp.ids = append(grp.ids, id)
	}
	return grp
}

// newReplica builds one incarnation of member m of group g.
func (g *Group) newReplica(shard, member int) *core.Replica {
	cfg := g.store.cfg.Core
	cfg.Machine = func() core.StateMachine { return g.store.cfg.Machine(shard) }
	cfg.Paxos.Members = g.ids
	r := core.NewReplica(cfg)
	g.reps[member].Store(r)
	return r
}

// Table returns the currently published routing table. Safe from any
// goroutine; the pointer swaps atomically at migration cutover.
func (s *Store) Table() RoutingTable { return *s.table.Load() }

// Epoch returns the published routing epoch.
func (s *Store) Epoch() int64 { return s.table.Load().Epoch }

// groupList returns the current group slice (append-only; safe to
// iterate from any goroutine).
func (s *Store) groupList() []*Group { return *s.groups.Load() }

// Shards returns the current group count.
func (s *Store) Shards() int { return len(s.groupList()) }

// ShardOf returns the group owning key under the published table.
func (s *Store) ShardOf(key string) int { return s.table.Load().Group(key) }

// Group returns shard g.
func (s *Store) Group(g int) *Group { return s.groupList()[g] }

// Members returns group g's node IDs (for fault injection in tests).
func (g *Group) Members() []env.NodeID { return g.ids }

// Replica returns the current incarnation of member m (which may be
// stale while the runtime has the node crashed).
func (g *Group) Replica(m int) *core.Replica { return g.reps[m].Load() }

// pick selects a submission target: a live, state-ready member,
// preferring the consensus leader to save the forwarding hop.
func (g *Group) pick() *core.Replica {
	var fallback *core.Replica
	for m, id := range g.ids {
		if !g.store.rt.Alive(id) {
			continue
		}
		r := g.reps[m].Load()
		if r == nil || !r.Ready() {
			continue
		}
		if r.LeaderHint() {
			return r
		}
		if fallback == nil {
			fallback = r
		}
	}
	return fallback
}

// route resolves key to its owning group, reporting frozen=true while a
// migration holds the key's slice in handoff (writes must wait for the
// new epoch; reads keep hitting the source group via the published
// table).
func (s *Store) route(key string) (group int, frozen bool) {
	t := s.table.Load()
	slice := t.SliceOf(key)
	if m := s.mig.Load(); m != nil && m.Frozen(slice) {
		return t.Assign[slice], true
	}
	return t.Assign[slice], false
}

// PickReplica returns the current submission target of the group owning
// key, or nil while no member is ready.
func (s *Store) PickReplica(key string) *core.Replica {
	g, _ := s.route(key)
	return s.groupList()[g].pick()
}

// PickRead returns a ready member of the group owning key for local
// reads, spread across the group's members by the caller-supplied hint
// (e.g. the session ID) so read traffic does not funnel to the leader —
// the 95%-local-reads property of §5.2 per shard. Reads are never frozen
// by a migration: until cutover they are served by the source group.
func (s *Store) PickRead(key string, hint int64) *core.Replica {
	g := s.groupList()[s.table.Load().Group(key)]
	n := len(g.ids)
	start := int(uint64(hint) % uint64(n))
	for off := 0; off < n; off++ {
		m := (start + off) % n
		if !s.rt.Alive(g.ids[m]) {
			continue
		}
		if r := g.reps[m].Load(); r != nil && r.Ready() {
			return r
		}
	}
	return nil
}

// Submit proposes an action for totally ordered execution on the group
// owning key; done (optional) receives the local execution result. Like
// core.Replica.Submit it must run on the target node's executor — in
// practice, inside the single-threaded simulator. Goroutine-based callers
// use Execute.
//
// While a migration holds the key's slice in handoff, the submission is
// buffered and flows to the new owning group at cutover — delayed by the
// migration window, never lost.
func (s *Store) Submit(key string, action any, done func(result any, err error)) {
	g, frozen := s.route(key)
	if frozen {
		if m := s.mig.Load(); m != nil && m.hold(key, action, done) {
			return
		}
		// Migration completed between route and defer: fall through with
		// the post-cutover routing.
		g, _ = s.route(key)
	}
	r := s.groupList()[g].pick()
	if r == nil {
		if done != nil {
			done(nil, ErrNoReplica)
		}
		return
	}
	r.Submit(action, done)
}

// Execute proposes an action on the group owning key and blocks until it
// has been applied there, retrying while the group has no ready member
// or the key's slice is mid-handoff (live runtime only; safe from any
// goroutine).
func (s *Store) Execute(ctx context.Context, key string, action any) (any, error) {
	for {
		gi, frozen := s.route(key)
		if !frozen {
			g := s.groupList()[gi]
			// The in-flight count brackets the submission so the
			// migration drain (freeze, then wait for the pre-freeze
			// phase's counter) cannot miss it. The re-check under the
			// held count decides: if it still names the same unfrozen
			// group, any later freeze must wait for our decrement before
			// the source log is fenced; if it sees the freeze, or a
			// whole migration completed between the two checks and the
			// key now routes elsewhere, we back off and re-route rather
			// than write to the stale owner.
			ph := s.drainPhase.Load()
			g.inflight[ph].Add(1)
			if gi2, nowFrozen := s.route(key); !nowFrozen && gi2 == gi {
				if r := g.pick(); r != nil {
					result, err := r.Execute(ctx, action)
					g.inflight[ph].Add(-1)
					if err == nil || !errors.Is(err, core.ErrNotReady) {
						return result, err
					}
				} else {
					g.inflight[ph].Add(-1)
				}
			} else {
				g.inflight[ph].Add(-1)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond): //walltime:live — client-goroutine retry backoff (Execute), never on the sim executor
		}
	}
}

// GroupStatus aggregates one shard's health and progress, built from
// published (goroutine-safe) replica metrics.
type GroupStatus struct {
	Shard       int
	Members     int
	Ready       int   // live members serving reads
	Leader      int   // member index leading the group, -1 if none seen
	Applied     int64 // actions applied (max over members, this incarnation)
	LastApplied int64 // highest applied consensus instance
	Backlog     int64 // worst decided-but-unapplied backlog across members
}

// Status returns one entry per shard. Safe from any goroutine; leader and
// backlog are published snapshots (≤100 ms stale).
func (s *Store) Status() []GroupStatus {
	groups := s.groupList()
	out := make([]GroupStatus, len(groups))
	for i, g := range groups {
		st := GroupStatus{Shard: i, Members: len(g.ids), Leader: -1}
		for m, id := range g.ids {
			r := g.reps[m].Load()
			if r == nil {
				continue
			}
			alive := s.rt.Alive(id)
			if alive && r.Ready() {
				st.Ready++
			}
			if alive && r.LeaderHint() {
				st.Leader = m
			}
			if a := r.AppliedCount(); a > st.Applied {
				st.Applied = a
			}
			if la := int64(r.LastApplied()); la > st.LastApplied {
				st.LastApplied = la
			}
			if alive {
				if b := r.BacklogHint(); b > st.Backlog {
					st.Backlog = b
				}
			}
		}
		out[i] = st
	}
	return out
}
