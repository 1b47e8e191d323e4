package shard

import (
	"errors"
	"sync"
	"time"

	"robuststore/internal/core"
)

// This file is the Store's side of a live migration (the protocol and its
// correctness argument are in migrate.go): it registers the new group,
// drains its own Execute calls through the phase-split in-flight counters,
// buffers the Submits the freeze delays, and drops moved rows — a row here
// belongs to exactly one hash slice.

// ErrMigrationActive is returned by Rebalance while a previous migration
// is still in flight.
var ErrMigrationActive = errors.New("shard: a migration is already in flight")

// pendingSubmit is one Submit buffered during the handoff freeze.
type pendingSubmit struct {
	key    string
	action any
	done   func(result any, err error)
}

// storeMigration is the MigrationHost of one Store migration.
type storeMigration struct {
	*Migration
	s        *Store
	grp      *Group // the group being added
	oldPhase int32  // drain phase in force before the freeze

	mu   sync.Mutex
	held []pendingSubmit // guarded by mu
}

// Migration returns the current (or last) migration's status. Safe from
// any goroutine.
func (s *Store) Migration() MigrationStatus {
	var st MigrationStatus
	if m := s.mig.Load(); m != nil {
		st = m.Status()
	}
	st.Epoch = s.Epoch()
	return st
}

// Rebalance adds one Paxos group to the store and live-migrates its share
// of the hash space to it, publishing the next routing epoch at cutover.
// It returns immediately; progress is event-driven (observe it via
// RebalanceOptions or Migration). Safe to call from simulator events or
// from any goroutine on the live runtime.
func (s *Store) Rebalance(opts RebalanceOptions) {
	// One migration at a time: the active check, group registration and
	// publication below are a single serialized step, so two concurrent
	// Rebalance calls cannot both pass the check or lose an append.
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	if m := s.mig.Load(); m != nil && m.Status().Active {
		if opts.Done != nil {
			opts.Done(ErrMigrationActive)
		}
		return
	}

	h := &storeMigration{s: s}
	onPhase := opts.OnPhase
	opts.OnPhase = func(phase string) {
		if phase == PhaseDrain {
			// Flipping the drain phase once the freeze is set makes the old
			// phase's in-flight counters strictly draining: new Executes
			// charge the other phase (and moving-key ones back off at their
			// re-check), so the drain wait is bounded under sustained load.
			h.oldPhase = s.drainPhase.Load()
			s.drainPhase.Store(1 - h.oldPhase)
		}
		if onPhase != nil {
			onPhase(phase)
		}
		if phase == PhaseCleanup {
			h.release()
		}
	}
	newShard := s.Shards()
	h.Migration = NewMigration(h, s.Table(), newShard, true, opts)

	// Register and boot the new group, then extend the group list. The
	// table still maps nothing to it, so it serves no traffic yet.
	h.grp = s.buildGroup(newShard)
	for _, id := range h.grp.ids {
		s.rt.Restart(id)
	}
	groups := append(append([]*Group(nil), s.groupList()...), h.grp)
	s.groups.Store(&groups)
	s.mig.Store(h)
	h.Start()
}

func (h *storeMigration) After(d time.Duration, fn func()) { h.s.rt.After(d, fn) }
func (h *storeMigration) Now() time.Time                   { return h.s.rt.Now() }

func (h *storeMigration) Order(g int, action any, done func(core.StateMachine)) {
	if r := h.s.groupList()[g].pick(); r != nil {
		r.SubmitFrom(action, func(_ any, err error) {
			if err == nil {
				done(r.Machine())
			}
		})
	}
}

// Booted: a ready member of the new group has observed an elected leader.
func (h *storeMigration) Booted() bool {
	r := h.grp.pick()
	return r != nil && r.HasLeader()
}

// Drained: every source group's pre-freeze Execute count has reached zero.
func (h *storeMigration) Drained() bool {
	groups := h.s.groupList()
	for _, g := range h.sources {
		if groups[g].inflight[h.oldPhase].Load() != 0 {
			return false
		}
	}
	return true
}

func (h *storeMigration) Publish(next RoutingTable) { h.s.table.Store(&next) }

// hold buffers one frozen-slice Submit until cutover. It reports false if
// the freeze lifted concurrently (the caller then routes through the
// published table). Checking and queueing under mu pairs with release,
// which runs after the freeze lifts: a Submit is either queued before
// release takes the queue, or sees its slice unfrozen.
func (h *storeMigration) hold(key string, action any, done func(any, error)) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.Frozen(h.next.SliceOf(key)) {
		return false
	}
	h.held = append(h.held, pendingSubmit{key: key, action: action, done: done})
	return true
}

// release sends the buffered Submits to their owners under the new epoch.
func (h *storeMigration) release() {
	h.mu.Lock()
	q := h.held
	h.held = nil
	h.mu.Unlock()
	groups := h.s.groupList()
	for _, p := range q {
		r := groups[h.next.Group(p.key)].pick()
		if r == nil || !r.SubmitFrom(p.action, p.done) {
			if p.done != nil {
				p.done(nil, ErrNoReplica)
			}
		}
	}
}
