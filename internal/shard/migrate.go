package shard

import (
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/detsort"
)

// This file is the live-migration protocol over the epoch-versioned
// routing table, once, for both tiers that reshard: shard.Store (rows keyed
// by hash slice, rebalance.go) and webtier.Cluster (client sessions keyed
// by hash slice, webtier/rebalance.go). A Migration grows the table by one
// group (Grow), streams the moving slices from each source group to the new
// one through the ordered log (keyed snapshot export → ordered
// PartitionImport), and cuts over by publishing the next epoch. What a tier
// does differently — registering the group, draining its own in-flight
// writes, holding the writes the freeze delays — sits behind MigrationHost.
//
// Correctness argument, phase by phase:
//
//   - boot: the new group's members are registered and started; nothing
//     routes to them yet, so the running workload is untouched.
//   - drain: the moving slices are frozen — the host delays their writes,
//     never fails them — and the host reports when every write admitted
//     before the freeze is behind it. An ordered Noop barrier per source
//     group then fences the log: state read after the barrier contains
//     every pre-freeze write that reached a replica.
//   - copy: each source group exports the rows owned by the slices it is
//     losing (a keyed snapshot, read post-barrier on the member that
//     applied the barrier) and the payload is submitted to the new group
//     as an ordered PartitionImport — every new-group replica applies it
//     at the same log position.
//   - cutover: the next-epoch table is published, the freeze lifts, and
//     the delayed writes flow to their new owners. The client-visible
//     migration window is freeze→cutover and only delays writes to moving
//     slices; reads and all other keys never stall.
//   - cleanup: where rows belong to exactly one slice, the source groups
//     drop the moved rows through ordered PartitionDrops.
//
// A member crash mid-migration is absorbed by the mechanisms that serve
// normal traffic: the host picks another member, the sweep in orderedOp
// re-submits barriers/imports/drops whose completions died with the
// victim, and all three are idempotent (imports are keyed upserts guarded
// per (epoch, source)), so a re-submission racing a hidden completion is
// safe.

// Migration phases, in order.
const (
	PhaseBoot    = "boot"    // new group starting, leader electing
	PhaseDrain   = "drain"   // moving slices frozen, sources draining
	PhaseCopy    = "copy"    // keyed snapshots streaming to the new group
	PhaseCleanup = "cleanup" // new epoch live; sources dropping moved rows
	PhaseDone    = "done"
)

// RebalanceOptions parameterizes one Rebalance call.
type RebalanceOptions struct {
	// OnPhase, if non-nil, observes each phase transition (fault
	// injection hooks into this to crash members mid-migration).
	OnPhase func(phase string)

	// Done, if non-nil, runs when the migration has fully completed
	// (cleanup included) or failed to start.
	Done func(err error)
}

// MigrationStatus is a snapshot of the migration state machine.
type MigrationStatus struct {
	Epoch       int64  // routing epoch currently published
	Active      bool   // a migration is in flight (cleanup included)
	Phase       string // current phase ("" when never migrated)
	NewGroup    int    // group index being added
	MovedSlices int    // hash slices changing owner
	TotalSlices int    // hash slices overall

	// StartedAt..CutoverAt is the client-visible migration window: the
	// interval during which writes to moving slices were delayed.
	// CutoverAt is zero while the window is open.
	StartedAt time.Time
	CutoverAt time.Time
}

// Window returns the client-visible migration window, or 0 while open or
// never started.
func (st MigrationStatus) Window() time.Duration {
	if st.StartedAt.IsZero() || st.CutoverAt.IsZero() {
		return 0
	}
	return st.CutoverAt.Sub(st.StartedAt)
}

// MigrationHost is the tier a Migration reshards. The driver calls it from
// runtime callbacks (After) and replica-executor completions, never
// blocking either.
type MigrationHost interface {
	// After and Now are the runtime's scheduler and clock. The driver
	// stamps its phases from Now alone, so simulated runs stay
	// deterministic.
	After(d time.Duration, fn func())
	Now() time.Time

	// Order submits an idempotent action to a ready member of group g;
	// once applied there, done runs on that member's executor with its
	// state machine. A submission may be lost (no ready member, a crash
	// before the completion): the driver re-submits until one completes.
	Order(g int, action any, done func(applied core.StateMachine))

	// Booted reports whether the new group can take ordered actions.
	Booted() bool

	// Drained reports, after the freeze, whether every write to a moving
	// slice admitted before it has reached its source group or been given
	// up on.
	Drained() bool

	// Publish makes next the routing table in force.
	Publish(next RoutingTable)
}

// Poll periods of the two waits, and the re-submission sweep of orderedOp.
const (
	bootPoll    = 50 * time.Millisecond
	drainPoll   = 10 * time.Millisecond
	resubmitGap = 500 * time.Millisecond
)

// Migration drives one table growth. Fields below mu are guarded by it:
// the live runtime completes ordered actions on replica goroutines.
type Migration struct {
	host       MigrationHost
	opts       RebalanceOptions
	dropMoved  bool
	newGroup   int
	prev, next RoutingTable
	moved      []int         // slices moving to the new group
	bySource   map[int][]int // source group → its moving slices
	sources    []int         // bySource's keys, ascending

	mu        sync.Mutex
	phase     string       // guarded by mu
	frozen    map[int]bool // guarded by mu; slices held mid-handoff
	startedAt time.Time    // guarded by mu
	cutoverAt time.Time    // guarded by mu
}

// NewMigration plans the growth of prev by group newGroup. dropMoved says
// whether sources drop the rows they hand over (true where a row belongs to
// exactly one slice). The host registers and boots the group, makes the
// Migration visible to its routing (Frozen), then calls Start.
func NewMigration(host MigrationHost, prev RoutingTable, newGroup int, dropMoved bool, opts RebalanceOptions) *Migration {
	next, moved := prev.Grow(newGroup)
	m := &Migration{
		host: host, opts: opts, dropMoved: dropMoved, newGroup: newGroup,
		prev: prev, next: next, moved: moved,
		bySource: make(map[int][]int),
		phase:    PhaseBoot,
		frozen:   make(map[int]bool),
	}
	for _, sl := range moved {
		m.bySource[prev.Assign[sl]] = append(m.bySource[prev.Assign[sl]], sl)
	}
	m.sources = detsort.Keys(m.bySource)
	return m
}

// Start runs the migration; progress is event-driven from here.
func (m *Migration) Start() {
	m.enter(PhaseBoot)
	m.awaitBoot()
}

// Status returns the migration's state, Epoch excepted (the host knows the
// published table). A nil Migration reports the never-migrated status.
func (m *Migration) Status() MigrationStatus {
	if m == nil {
		return MigrationStatus{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MigrationStatus{
		Active:      m.phase != PhaseDone,
		Phase:       m.phase,
		NewGroup:    m.newGroup,
		MovedSlices: len(m.moved),
		TotalSlices: m.next.Slices(),
		StartedAt:   m.startedAt,
		CutoverAt:   m.cutoverAt,
	}
}

// Frozen reports whether a hash slice is held mid-handoff: its writes wait
// for the next epoch.
func (m *Migration) Frozen(slice int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frozen[slice]
}

func (m *Migration) enter(phase string) {
	m.mu.Lock()
	m.phase = phase
	m.mu.Unlock()
	if m.opts.OnPhase != nil {
		m.opts.OnPhase(phase)
	}
}

// orderedOp orders action on group g until a completion is observed, then
// calls then with the completing member's machine, on its executor, exactly
// once. Submissions that die with a crashed member are re-issued by the
// sweep.
func (m *Migration) orderedOp(g int, action any, then func(core.StateMachine)) {
	var completed atomic.Bool
	var attempt func()
	attempt = func() {
		if completed.Load() {
			return
		}
		m.host.Order(g, action, func(sm core.StateMachine) {
			if completed.CompareAndSwap(false, true) {
				then(sm)
			}
		})
		m.host.After(resubmitGap, attempt)
	}
	attempt()
}

// eachSource runs step for every source group and calls then once all of
// them have reported done (at once when nothing moves).
func (m *Migration) eachSource(step func(g int, done func()), then func()) {
	var left atomic.Int64
	if left.Add(int64(len(m.sources))) == 0 {
		then()
	}
	for _, g := range m.sources {
		step(g, func() {
			if left.Add(-1) == 0 {
				then()
			}
		})
	}
}

// awaitBoot polls until the new group is up, then opens the migration
// window: the moving slices freeze.
func (m *Migration) awaitBoot() {
	if !m.host.Booted() {
		m.host.After(bootPoll, m.awaitBoot)
		return
	}
	m.mu.Lock()
	for _, sl := range m.moved {
		m.frozen[sl] = true
	}
	m.startedAt = m.host.Now()
	m.mu.Unlock()
	m.enter(PhaseDrain)
	m.awaitDrain()
}

// awaitDrain polls until the pre-freeze writes are drained, then hands each
// source's slices over.
func (m *Migration) awaitDrain() {
	if !m.host.Drained() {
		m.host.After(drainPoll, m.awaitDrain)
		return
	}
	m.enter(PhaseCopy)
	m.eachSource(m.handOver, m.cutover)
}

// handOver fences source g's log with an ordered barrier, exports behind it
// and imports the export into the new group.
func (m *Migration) handOver(g int, done func()) {
	m.orderedOp(g, core.Noop{}, func(sm core.StateMachine) {
		// On the executor of the member that applied the barrier: its
		// machine holds every pre-freeze write to the moving slices, which
		// cannot change again until cutover. A machine without the
		// capability exports nothing: a routing-only migration.
		imp := core.PartitionImport{Epoch: m.next.Epoch, Source: g}
		if pm, ok := sm.(core.PartitionedMachine); ok {
			imp.Data, imp.Size = pm.ExportOwned(m.prev.Owned(m.bySource[g]))
		}
		// Hop off the source executor before submitting elsewhere.
		m.host.After(0, func() {
			if imp.Data == nil {
				done()
				return
			}
			m.orderedOp(m.newGroup, imp, func(core.StateMachine) { m.host.After(0, done) })
		})
	})
}

// cutover publishes the next-epoch table and closes the migration window;
// the table changes before the freeze lifts, so a write never finds its
// slice unfrozen under the old owner.
func (m *Migration) cutover() {
	m.host.Publish(m.next)
	now := m.host.Now()
	m.mu.Lock()
	m.cutoverAt = now
	m.frozen = nil
	m.mu.Unlock()
	m.enter(PhaseCleanup)
	if !m.dropMoved {
		m.host.After(0, m.finish)
		return
	}
	m.eachSource(func(g int, done func()) {
		drop := core.PartitionDrop{Epoch: m.next.Epoch, Owned: m.prev.Owned(m.bySource[g])}
		m.orderedOp(g, drop, func(core.StateMachine) { m.host.After(0, done) })
	}, m.finish)
}

func (m *Migration) finish() {
	m.enter(PhaseDone)
	if m.opts.Done != nil {
		m.opts.Done(nil)
	}
}
