// Package core implements Treplica (paper §2): middleware for building
// highly available applications over an asynchronous persistent queue
// backed by Paxos and Fast Paxos (internal/paxos).
//
// Two programming abstractions are offered, mirroring the paper:
//
//   - Replica: the state machine interface. The application is a black box
//     whose deterministic transitions ("actions") are totally ordered and
//     executed on every replica; getState()/checkpointing and recovery are
//     transparent.
//   - Queue: the asynchronous persistent queue, a totally ordered
//     collection of objects with asynchronous Enqueue and blocking
//     Dequeue.
//
// Recovery follows §2 and §5.4: a restarted replica loads its most recent
// local checkpoint and, in parallel, learns the missing log suffix from
// the active replicas; once re-synchronized it proceeds as if it had never
// crashed. When the suffix is no longer retained anywhere, the replica
// falls back to a full remote state transfer (an extension the paper's
// retention policy avoids).
package core

import (
	"context"
	"errors"
	"maps"
	"sync/atomic"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/paxos"
)

// StateMachine is the application contract: a deterministic black box.
// Execute must be a pure function of the current state and the action —
// all non-determinism (timestamps, random numbers) must be captured inside
// the action by the caller before submission, exactly as RobustStore does
// for TPC-W (paper §4, task II).
type StateMachine interface {
	// Execute applies one action and returns its result.
	Execute(action any) any

	// Snapshot returns the state as an immutable payload — later Executes
	// must never show through it, though the copy may be lazy (the
	// bookstore shares copy-on-write pages) — plus its nominal serialized
	// size in bytes (the paper's 300/500/700 MB state sizes drive recovery
	// time through this value).
	Snapshot() (data any, size int64)

	// Restore replaces the state from a Snapshot payload.
	Restore(data any)
}

// Config parameterizes a Replica.
type Config struct {
	// Machine builds a fresh, empty state machine for each incarnation.
	Machine func() StateMachine

	// FastPaxos allows fast rounds (paxos.Config.FastEnabled): they run in
	// groups of four or more while ⌈3N/4⌉ replicas are alive and none of the
	// live ones is reading its checkpoint; a group of three or fewer always
	// runs classic rounds.
	FastPaxos bool

	// CheckpointInterval is the period between checkpoints. Default
	// 60 s.
	CheckpointInterval time.Duration

	// RetainInstances is how many decided instances are kept past the
	// last checkpoint to serve recovering peers. Default 200000.
	RetainInstances int64

	// SequentialRecovery disables the checkpoint-load ∥ suffix-learning
	// overlap of §5.4 (ablation): consensus boots only after the
	// application checkpoint has been restored.
	SequentialRecovery bool

	// MaxDeltaChain caps how many delta layers stack on one base before
	// the next checkpoint compacts the chain back into a fresh base
	// (bounding recovery to base + MaxDeltaChain layer reads).
	// Default 8. A negative value makes every checkpoint a full base.
	MaxDeltaChain int

	// MaxChainFraction compacts earlier when the chain's accumulated
	// delta bytes exceed this fraction of the base size (bounding the
	// redundant bytes recovery reads). Default 0.5.
	MaxChainFraction float64

	// ActionSize models an action's serialized size in bytes; nil means
	// 160 bytes.
	ActionSize func(action any) int64

	// Paxos carries engine tuning (batching, timeouts). Deliver,
	// CmdSize, FastEnabled and OnCatchUpGap are owned by the replica
	// and ignored here.
	Paxos paxos.Config

	// OnCheckpoint, if non-nil, is invoked when a checkpoint starts,
	// with its size; the web tier uses it to charge the serialization
	// pause to the replica CPU.
	OnCheckpoint func(size int64)

	// OnRecovered, if non-nil, fires once per incarnation when a
	// replica that started from a checkpoint has re-synchronized with
	// the cluster (recovery-time measurements, Figure 6).
	OnRecovered func()

	// OnReady, if non-nil, fires when the application state is restored
	// and the replica can serve local reads.
	OnReady func()

	// OnTxnStaged, if non-nil, fires whenever a TxnPrepare record stages
	// a branch on this replica — live submit, duplicate, or log replay
	// alike. The deployment tier arms its resolution loop here: readiness
	// rescans alone miss a prepare whose log record replays only after
	// the replica reported ready. Invoked on the replica's executor.
	OnTxnStaged func(id string, home int)
}

func (c Config) withDefaults() Config {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 60 * time.Second
	}
	if c.RetainInstances == 0 {
		c.RetainInstances = 200000
	}
	if c.ActionSize == nil {
		c.ActionSize = func(any) int64 { return 160 }
	}
	if c.MaxDeltaChain == 0 {
		c.MaxDeltaChain = 8
	}
	if c.MaxChainFraction == 0 {
		c.MaxChainFraction = 0.5
	}
	return c
}

// pendingDone is the completion of one submission awaiting its apply: the
// callback of Submit or of SubmitIndexed, whichever was given (the zero
// value completes nothing).
type pendingDone struct {
	plain   func(result any, err error)
	indexed func(result any, inst paxos.InstanceID, err error)
}

func (p pendingDone) fire(result any, inst paxos.InstanceID, err error) {
	switch {
	case p.indexed != nil:
		p.indexed(result, inst, err)
	case p.plain != nil:
		p.plain(result, err)
	}
}

// Snapshot payloads.
//
// metaSnap is the checkpoint manifest (delta.go): Base names the durable
// base snapshot, BaseID identifies it for remote missing-layer streaming,
// and Chain lists the delta layers stacked on it in application order.
// The manifest write is the atomic commit point of every checkpoint —
// layers are durable strictly before the manifest that references them,
// so a crash anywhere in between leaves the previous, consistent (base,
// chain) prefix in force. A replica that never checkpointed has none; its
// zero value names no base.
type metaSnap struct {
	LastApplied paxos.InstanceID
	Base        string
	BaseID      int64
	Chain       []LayerRef
}

// appSnap is the envelope of every checkpoint layer — a base image or a
// delta layer: the machine's payload beside the replica's own state at the
// same log position.
type appSnap struct {
	LastApplied paxos.InstanceID
	Delivered   paxos.DeliveredState
	Data        any
	Size        int64

	// logState at the checkpoint, restored with the state: a recovering
	// replica must hold exactly the applied transfers, prepared branches,
	// terminal transactions and recorded decisions its state reflects, or
	// replayed records would re-import, re-stage or re-apply.
	logState
}

// logState is the replica-level state the ordered log drives beside the
// machine's: every replica of a group holds the same maps at the same log
// position, so they travel with the checkpoint (appSnap) and replay
// reproduces them exactly.
type logState struct {
	// imported guards partition imports at-most-once per transfer (see
	// executeAction in partition.go).
	imported map[importKey]bool

	// Cross-shard transaction state (txn.go): branches staged by
	// TxnPrepare and awaiting their outcome, transactions resolved on this
	// group (idempotence guard for retried outcome records), and the
	// coordinator decision records ordered in this group as the home group.
	txnPrepared  map[string]StagedTxn
	txnDone      map[string]bool
	txnDecisions map[string]bool
}

// clone copies the maps, for both directions: a checkpoint must not see later
// log records, and a restored replica must not write into a stored payload.
func (s logState) clone() logState {
	return logState{
		imported:     maps.Clone(s.imported),
		txnPrepared:  maps.Clone(s.txnPrepared),
		txnDone:      maps.Clone(s.txnDone),
		txnDecisions: maps.Clone(s.txnDecisions),
	}
}

// Core-level transfer messages (remote checkpoint fallback).
//
// HaveBaseID/HaveLayers describe the layered snapshot the requester
// already restored from a previous reply (zero = none): a peer whose
// current base matches streams only the missing delta layers instead of
// re-sending the full base image.
type snapReqMsg struct {
	HaveBaseID int64
	HaveLayers int
}

func (snapReqMsg) WireSize() int64 { return 48 }

// snapReplyMsg carries a checkpoint: the base image (nil when the
// requester already holds it) plus the delta layers stacked on it, in
// chain order. FirstDelta is the chain index of Deltas[0] on the serving
// replica (non-zero only when the requester already held a prefix of the
// chain).
type snapReplyMsg struct {
	OK         bool
	BaseID     int64
	Base       *appSnap
	FirstDelta int
	Deltas     []appSnap
}

func (m snapReplyMsg) WireSize() int64 {
	sz := int64(64)
	if m.Base != nil {
		sz += m.Base.Size
	}
	for _, d := range m.Deltas {
		sz += d.Size
	}
	return sz
}

// ErrNotReady is returned for submissions while the replica is still
// recovering its application state.
var ErrNotReady = errors.New("core: replica state not yet recovered")

// ErrLearner is returned for submissions on a learner replica: learners
// apply the ordered log but never propose to it.
var ErrLearner = errors.New("core: learner replicas cannot submit actions")

// Replica is one member of a replicated state machine. It implements
// env.Node; construct one per incarnation via its Config.Machine factory
// wiring (see NewReplica) and hand it to a runtime.
type Replica struct {
	cfg Config
	e   env.Env
	me  env.NodeID

	sm StateMachine
	en *paxos.Engine

	appReady    bool
	recovering  bool
	recovered   bool
	lastApplied paxos.InstanceID
	buffer      []bufferedValue

	// pending holds the completions of this incarnation's submissions,
	// keyed by the number the engine gave the command (paxos.Value), which
	// nextSeq mirrors so an entry is in place before the engine sees the
	// command.
	nextSeq int64
	pending map[int64]pendingDone

	// fences holds registered fenced reads waiting for lastApplied to
	// reach their minimum index (ReadAt). Loop-confined; fired
	// in FIFO registration order as the applied frontier advances.
	fences []*fenceWaiter

	logState

	lastCheckpoint paxos.InstanceID
	hasCheckpoint  bool
	checkpointing  bool

	// Checkpoint state (delta.go): the in-memory mirror of the durable
	// manifest. baseName == "" means no base yet, or none since a remote
	// restore replaced the state.
	baseName   string
	baseID     int64
	baseSeq    int64 // monotone base counter, restored from the manifest
	baseSize   int64
	chain      []LayerRef
	chainBytes int64
	forceBase  bool // a PartitionDrop or a failed write broke the chain

	// staleLayers are durable layers a remote restore superseded in
	// memory while the on-disk manifest still references them; the next
	// base write garbage-collects them once its manifest commits.
	staleLayers []string

	// Remote layered-restore bookkeeping: the identity of the last
	// remotely fetched base, so a repeated fallback asks the serving
	// peer for only the layers it has not applied yet.
	remoteBaseID int64
	remoteLayers int

	// serving guards one in-flight snapshot serve per requester, so a
	// retrying peer cannot queue redundant checkpoint reads on our disk.
	serving map[env.NodeID]bool

	snapAsked    bool
	recheckArmed bool
	applied      int64 // actions applied this incarnation (stats)
	joinedAt     time.Time
	recoveredAt  time.Time

	// Published introspection state: these mirror the loop-confined
	// fields above so application goroutines in the live runtime can
	// poll them without racing the event loop.
	pubReady       atomic.Bool
	pubRecovered   atomic.Bool
	pubHasLeader   atomic.Bool
	pubIsLeader    atomic.Bool
	pubBacklog     atomic.Int64
	pubLastApplied atomic.Int64
	pubApplied     atomic.Int64
	pubEnv         atomic.Value // env.Env, set once at Start

	// Checkpoint accounting (published): full base images and delta
	// layers written this incarnation, and their total bytes.
	pubCkptBases  atomic.Int64
	pubCkptDeltas atomic.Int64
	pubCkptBytes  atomic.Int64
}

// bufferedValue is a delivery that waits for the checkpoint read. It holds
// the value by pointer, as every holder of a paxos.Value does.
type bufferedValue struct {
	inst paxos.InstanceID
	v    *paxos.Value
}

var _ env.Node = (*Replica)(nil)

// NewReplica builds a replica for one incarnation.
func NewReplica(cfg Config) *Replica {
	cfg = cfg.withDefaults()
	if cfg.Machine == nil {
		panic("core: Config.Machine is required")
	}
	return &Replica{
		cfg:     cfg,
		pending: make(map[int64]pendingDone),
		serving: make(map[env.NodeID]bool),
	}
}

// Start implements env.Node: it boots consensus and runs recovery. The
// tiny meta snapshot is read first so the engine can begin learning the
// log suffix from its peers while the (large) application checkpoint
// streams from the local disk in parallel — the overlap §5.4 credits for
// the leveling of recovery times.
func (r *Replica) Start(e env.Env) {
	r.e = e
	r.pubEnv.Store(e)
	r.me = e.ID()
	r.joinedAt = e.Now()
	r.sm = r.cfg.Machine()

	e.Storage().LoadSnapshot("meta", func(snap env.Snapshot, ok bool) {
		floor := paxos.InstanceID(0)
		manifest, good := snap.Data.(metaSnap)
		if ok && good {
			floor = manifest.LastApplied + 1
			r.recovering = true
		}
		bootEngine := func() {
			pcfg := r.cfg.Paxos
			pcfg.FastEnabled = r.cfg.FastPaxos
			pcfg.CmdSize = func(action any) int64 {
				// A keyed-snapshot import is charged by its payload, like
				// the checkpoint transfer it is.
				if pi, ok := action.(PartitionImport); ok {
					return 64 + pi.Size
				}
				// A prepare record carries a whole branch action plus the
				// transaction header; charge both.
				if tp, ok := action.(TxnPrepare); ok {
					return 96 + r.cfg.ActionSize(tp.Action)
				}
				return 48 + r.cfg.ActionSize(action)
			}
			pcfg.Deliver = r.onDeliver
			pcfg.OnCatchUpGap = r.onCatchUpGap
			r.en = paxos.New(pcfg)
			r.en.Boot(e, floor, nil)
		}
		if !r.cfg.SequentialRecovery {
			bootEngine()
			// The checkpoint read below shares the disk with the engine's
			// WAL syncs: the group orders in classic rounds until it ends.
			if r.recovering {
				r.en.SetRestoring(true)
			}
		}
		// A fresh replica reads the zero manifest's unnamed base too: it
		// finds nothing and starts empty, the initial state.
		r.readLayers(manifest, 0, func(base *appSnap, layers []appSnap, ok bool) {
			if r.cfg.SequentialRecovery {
				// Ablation: no checkpoint/suffix overlap — consensus
				// joins only after the state is restored.
				bootEngine()
			}
			r.baseSeq = baseSeqOf(manifest.BaseID)
			restored := appSnap{LastApplied: -1}
			switch {
			case ok && r.applyLayers(base, layers):
				restored = *base
				if n := len(layers); n > 0 {
					restored = layers[n-1]
				}
				r.baseName, r.baseID, r.baseSize = manifest.Base, manifest.BaseID, base.Size
				r.chain = append([]LayerRef(nil), manifest.Chain...)
				for _, ref := range r.chain {
					r.chainBytes += ref.Size
				}
			case manifest.Base != "":
				// Layers are durable before the manifest that names them,
				// so this is damage from outside (or a machine that lost
				// its delta capability). Nothing was applied.
				r.e.Logf("core: checkpoint on base %q unreadable; starting empty", manifest.Base)
			}
			r.finishRestore(restored)
		})
		r.scheduleCheckpoint()
		r.publishLoop()
	})
}

// finishRestore completes application-state recovery and drains buffered
// deliveries.
func (r *Replica) finishRestore(app appSnap) {
	r.en.SetRestoring(false)
	r.lastApplied = app.LastApplied
	r.lastCheckpoint = app.LastApplied
	r.hasCheckpoint = r.recovering
	r.logState = app.logState.clone()
	if app.Delivered != nil {
		r.en.SetDelivered(app.Delivered)
	}
	if app.LastApplied >= 0 {
		r.en.SkipTo(app.LastApplied + 1)
	}
	r.appReady = true
	r.pubReady.Store(true)
	if !r.recovering {
		r.pubRecovered.Store(true)
	}
	buf := r.buffer
	r.buffer = nil
	for _, bv := range buf {
		r.apply(bv.inst, bv.v)
	}
	r.fireFences()
	if r.cfg.OnReady != nil {
		r.cfg.OnReady()
	}
	r.maybeRecovered()
}

// Receive implements env.Node.
func (r *Replica) Receive(from env.NodeID, msg env.Message) {
	if r.en != nil && r.en.Handle(from, msg) {
		return
	}
	switch m := msg.(type) {
	case snapReqMsg:
		r.onSnapReq(from, m)
	case snapReplyMsg:
		r.onSnapReply(m)
	}
}

// --- Submission --------------------------------------------------------

// Submit proposes an action for totally ordered execution; done (optional)
// is invoked on this node's executor with the local execution result once
// the action has been applied here. All replica-visible non-determinism
// must already be resolved inside the action (paper §4).
func (r *Replica) Submit(action any, done func(result any, err error)) {
	r.submit(action, pendingDone{plain: done})
}

// SubmitIndexed is Submit for callers that need the commit index: done
// additionally receives the log instance the action was applied at, which
// a client can carry as the fence of its subsequent reads (ReadAt) to get
// read-your-writes across replicas.
func (r *Replica) SubmitIndexed(action any, done func(result any, inst paxos.InstanceID, err error)) {
	r.submit(action, pendingDone{indexed: done})
}

func (r *Replica) submit(action any, done pendingDone) {
	if r.cfg.Paxos.Learner {
		done.fire(nil, -1, ErrLearner)
		return
	}
	if r.en == nil || !r.appReady {
		done.fire(nil, -1, ErrNotReady)
		return
	}
	r.nextSeq++
	if done.plain != nil || done.indexed != nil {
		r.pending[r.nextSeq] = done
	}
	if n := r.en.Submit(action); n != r.nextSeq {
		panic("core: engine command numbering out of step with pending")
	}
}

// Execute proposes an action and blocks until it has been applied locally,
// mirroring the synchronous execute() of Treplica's state machine API. It
// must be called from outside the node's executor (live runtime only).
func (r *Replica) Execute(ctx context.Context, action any) (any, error) {
	e, ok := r.pubEnv.Load().(env.Env)
	if !ok {
		return nil, ErrNotReady
	}
	type outcome struct {
		result any
		err    error
	}
	ch := make(chan outcome, 1)
	e.Post(func() {
		r.Submit(action, func(result any, err error) {
			ch <- outcome{result, err}
		})
	})
	select {
	case out := <-ch:
		return out.result, out.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// SubmitFrom proposes an action from any goroutine by posting the
// submission onto this replica's executor; done (optional) runs on that
// executor once the action has been applied locally. It is the
// fire-and-forget sibling of Execute, used by the migration driver, whose
// event-driven retry loop must not block a node executor. Returns false
// if the replica has not started yet.
func (r *Replica) SubmitFrom(action any, done func(result any, err error)) bool {
	e, ok := r.pubEnv.Load().(env.Env)
	if !ok {
		return false
	}
	e.Post(func() { r.Submit(action, done) })
	return true
}

// Inspect posts fn onto this replica's executor with its state machine —
// the loop-safe way for application goroutines to read machine state
// (Machine itself is loop-confined). Returns false if the replica has
// not started yet.
func (r *Replica) Inspect(fn func(sm StateMachine)) bool {
	e, ok := r.pubEnv.Load().(env.Env)
	if !ok {
		return false
	}
	e.Post(func() { fn(r.sm) })
	return true
}

// fenceWaiter is one registered fenced read: run fn once lastApplied
// reaches minIndex, or stale after the bounded wait expires. Loop-confined
// (all fields are touched only on the replica's executor).
type fenceWaiter struct {
	minIndex paxos.InstanceID
	fn       func(sm StateMachine, applied paxos.InstanceID)
	stale    func()
	done     bool
}

// ReadAt is the fenced read of the follower-read protocol: run fn with the
// state machine as soon as this replica's applied index reaches minIndex —
// immediately when it already has — and report the applied index fn ran
// at. If the replica does not catch up within wait, stale runs instead
// (the TooStale fallback; the caller retries on a fresher replica). fn and
// stale run on the replica's executor, exactly one of them, always
// asynchronously with respect to the caller when a wait is needed.
// Returns false if the replica has not started yet.
func (r *Replica) ReadAt(minIndex paxos.InstanceID, wait time.Duration,
	fn func(sm StateMachine, applied paxos.InstanceID), stale func()) bool {
	e, ok := r.pubEnv.Load().(env.Env)
	if !ok {
		return false
	}
	e.Post(func() { r.readAt(minIndex, wait, fn, stale) })
	return true
}

func (r *Replica) readAt(minIndex paxos.InstanceID, wait time.Duration,
	fn func(StateMachine, paxos.InstanceID), stale func()) {
	if r.appReady && r.lastApplied >= minIndex {
		fn(r.sm, r.lastApplied)
		return
	}
	w := &fenceWaiter{minIndex: minIndex, fn: fn, stale: stale}
	r.fences = append(r.fences, w)
	r.e.After(wait, func() {
		if w.done {
			return
		}
		w.done = true
		if w.stale != nil {
			w.stale()
		}
	})
}

// fireFences runs every waiting fenced read whose minimum index the
// replica has now applied, in registration order, and compacts the rest.
func (r *Replica) fireFences() {
	if len(r.fences) == 0 {
		return
	}
	kept := r.fences[:0]
	for _, w := range r.fences {
		if w.done {
			continue // expired to stale; drop
		}
		if r.appReady && r.lastApplied >= w.minIndex {
			w.done = true
			w.fn(r.sm, r.lastApplied)
			continue
		}
		kept = append(kept, w)
	}
	tail := r.fences[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	r.fences = kept
}

// PublishInterval is the refresh period of the published introspection
// hints (HasLeader, LeaderHint, BacklogHint).
const PublishInterval = 100 * time.Millisecond

// publishLoop publishes now and then every PublishInterval, on one timer
// re-armed at the bottom of its callback.
func (r *Replica) publishLoop() {
	r.publish()
	var tick env.Timer
	tick = r.e.After(PublishInterval, func() {
		r.publish()
		tick.Reset(PublishInterval)
	})
}

// publish refreshes the published leadership and backlog snapshots so
// application goroutines can await service readiness and aggregate
// per-group metrics (internal/shard) without touching loop state.
func (r *Replica) publish() {
	if r.en != nil {
		r.pubHasLeader.Store(r.en.CurrentBallot().Seq >= 0)
		r.pubIsLeader.Store(r.en.IsLeader())
		r.pubBacklog.Store(r.en.Backlog())
	}
}

// --- Delivery ----------------------------------------------------------

func (r *Replica) onDeliver(inst paxos.InstanceID, v *paxos.Value) {
	if !r.appReady {
		r.buffer = append(r.buffer, bufferedValue{inst: inst, v: v})
		return
	}
	r.apply(inst, v)
}

func (r *Replica) apply(inst paxos.InstanceID, v *paxos.Value) {
	if inst <= r.lastApplied {
		return
	}

	// Only a value this incarnation proposed can complete a pending
	// submission: command numbers start over with every incarnation, so a
	// value replayed from an earlier one must not hand a caller the result
	// of a different, older action.
	mine := v.ID.Node == r.me && v.ID.Epoch == r.en.Epoch()
	for i, action := range v.Cmds {
		result := r.executeAction(action)
		r.applied++
		if !mine {
			continue
		}
		seq := v.First + int64(i)
		if done, ok := r.pending[seq]; ok {
			delete(r.pending, seq)
			done.fire(result, inst, nil)
		}
	}
	r.lastApplied = inst
	r.pubLastApplied.Store(int64(inst))
	r.pubApplied.Store(r.applied)
	r.fireFences()
	r.maybeRecovered()
}

// members returns the consensus group this replica belongs to.
func (r *Replica) members() []env.NodeID {
	if r.cfg.Paxos.Members != nil {
		return r.cfg.Paxos.Members
	}
	return r.e.Peers()
}

// maybeRecovered fires OnRecovered once the replica has both restored its
// checkpoint and drained the backlog the cluster accumulated while it was
// down. The decided watermark (MaxKnown) is only trustworthy once the
// failure detector has heard from a quorum, so recovery detection waits
// for that plus a short grace period; a slow ticker re-checks while
// recovering in case no new traffic arrives.
func (r *Replica) maybeRecovered() {
	if !r.recovering || r.recovered || !r.appReady {
		return
	}
	grace := r.e.Now().Sub(r.joinedAt) >= time.Second
	quorumSeen := r.en.AliveCount() >= paxos.ClassicQuorum(len(r.members()))
	if grace && quorumSeen && r.en.FirstUnchosen() > r.en.MaxKnown() {
		r.recovered = true
		r.pubRecovered.Store(true)
		r.recoveredAt = r.e.Now()
		if r.cfg.OnRecovered != nil {
			r.cfg.OnRecovered()
		}
		return
	}
	if !r.recheckArmed {
		r.recheckArmed = true
		r.e.After(250*time.Millisecond, func() {
			r.recheckArmed = false
			r.maybeRecovered()
		})
	}
}

// --- Checkpointing -----------------------------------------------------

func (r *Replica) scheduleCheckpoint() {
	r.e.After(r.cfg.CheckpointInterval+checkpointPhase(r.me, r.cfg.CheckpointInterval), r.checkpointLoop)
}

// checkpointPhase spreads replicas' checkpoints across the interval so
// they do not pause in lockstep: me mod 8 eighths of the interval. The
// modulus matters — without it, node IDs past 8 (every sharded
// deployment) would delay their first checkpoint by whole multiples of
// the interval and land groups of nodes back on the same phase.
func checkpointPhase(me env.NodeID, interval time.Duration) time.Duration {
	return time.Duration(int64(me)%8) * interval / 8
}

func (r *Replica) checkpointLoop() {
	r.Checkpoint(nil)
	r.e.After(r.cfg.CheckpointInterval, r.checkpointLoop)
}

// Checkpoint takes a durable checkpoint now: snapshot the state machine,
// write it to stable storage, then compact the consensus log up to it
// (minus the retention window that serves recovering peers). done, if
// non-nil, runs when the checkpoint is durable or has failed.
//
// A checkpoint is a full base or, for a machine implementing
// DeltaSnapshotter while the chain is healthy, a delta layer of the rows
// dirtied since the previous one, chained onto the last base (delta.go).
func (r *Replica) Checkpoint(done func()) {
	// An initial checkpoint (nothing applied yet, nothing checkpointed)
	// is meaningful: it makes the pre-populated state durable, which is
	// how the experiments install the TPC-W population before the
	// measurement interval.
	initial := r.lastApplied == -1 && r.lastCheckpoint == -1 && !r.hasCheckpoint
	if !r.appReady || r.checkpointing || (r.lastApplied <= r.lastCheckpoint && !initial) {
		if done != nil {
			done()
		}
		return
	}
	r.checkpointing = true
	// A chain grows while it is short and small beside its base.
	if ds, ok := r.sm.(DeltaSnapshotter); ok && r.baseName != "" && !r.forceBase &&
		len(r.chain) < r.cfg.MaxDeltaChain &&
		float64(r.chainBytes) < r.cfg.MaxChainFraction*float64(r.baseSize) {
		if data, size, ok := ds.SnapshotDelta(); ok {
			r.writeDelta(data, size, done)
			return
		}
		// The machine cannot bound a delta against the durable chain —
		// rows were dropped wholesale by a partition rebalance. Fall
		// through to a fresh base, which truncates the chain so dropped
		// rows can never resurrect from a stale layer on recovery.
	}
	r.writeBase(done)
}

// --- Remote snapshot fallback -------------------------------------------

func (r *Replica) onCatchUpGap(firstAvail paxos.InstanceID) {
	if r.snapAsked {
		return
	}
	r.snapAsked = true
	// Ask every member; first useful reply wins. The request advertises
	// the layered snapshot we already hold so a matching peer streams
	// only the layers we are missing.
	for _, p := range r.members() {
		if p != r.me {
			r.e.Send(p, snapReqMsg{HaveBaseID: r.remoteBaseID, HaveLayers: r.remoteLayers})
		}
	}
}

func (r *Replica) onSnapReq(from env.NodeID, m snapReqMsg) {
	// Serve our most recent durable checkpoint from disk — the manifest
	// decides what is read, so a replica still restoring its own state
	// serves exactly what its storage holds, and a requester that already
	// restored this manifest's base is sent only the layers it is missing.
	// Reading charges our disk, the reply charges the network by the bytes
	// shipped, both as in a real state transfer. One serve per requester at
	// a time: a retrying peer must not queue redundant multi-second
	// checkpoint reads on our disk.
	if r.serving[from] {
		return
	}
	r.serving[from] = true
	r.e.Storage().LoadSnapshot("meta", func(snap env.Snapshot, _ bool) {
		manifest, _ := snap.Data.(metaSnap)
		first := 0
		if m.HaveBaseID == manifest.BaseID && m.HaveLayers <= len(manifest.Chain) {
			first = m.HaveLayers
		}
		// Not ok: no checkpoint, or a compaction replaced the chain between
		// the manifest read and a layer read; the requester retries.
		r.readLayers(manifest, first, func(base *appSnap, layers []appSnap, ok bool) {
			delete(r.serving, from)
			r.e.Send(from, snapReplyMsg{OK: ok, BaseID: manifest.BaseID, Base: base, FirstDelta: first, Deltas: layers})
		})
	})
}

func (r *Replica) onSnapReply(m snapReplyMsg) {
	r.snapAsked = false
	if !m.OK || !r.appReady {
		return
	}
	// The restore target is the newest layer carried; a stale or empty
	// reply (our state already covers it) is ignored.
	last := m.Base
	if n := len(m.Deltas); n > 0 {
		last = &m.Deltas[n-1]
	}
	if last == nil || last.LastApplied <= r.lastApplied {
		return
	}
	// Apply the layers we do not hold yet: all of them onto a new base, or
	// those past our remote base's prefix (a retransmitted prefix is
	// skipped, not re-applied).
	layers := m.Deltas
	if m.Base == nil {
		if m.BaseID == 0 || m.BaseID != r.remoteBaseID || m.FirstDelta > r.remoteLayers {
			return // delta-only reply that does not extend our remote base
		}
		layers = layers[min(r.remoteLayers-m.FirstDelta, len(layers)):]
	}
	if !r.applyLayers(m.Base, layers) {
		return
	}
	r.remoteBaseID = m.BaseID
	r.remoteLayers = m.FirstDelta + len(m.Deltas)
	r.logState = last.logState.clone()
	r.lastApplied = last.LastApplied
	r.lastCheckpoint = last.LastApplied
	// The local durable chain no longer describes the in-memory state,
	// so the next checkpoint must fold into a fresh base. The superseded
	// layers stay on disk until that base's manifest commits (the durable
	// manifest still references them); the fold then deletes them.
	if r.baseName != "" {
		r.staleLayers = append(r.staleLayers, r.baseName)
		for _, ref := range r.chain {
			r.staleLayers = append(r.staleLayers, ref.Name)
		}
	}
	r.baseName, r.baseID, r.chain, r.chainBytes = "", 0, nil, 0
	r.en.SetDelivered(last.Delivered)
	r.en.SkipTo(last.LastApplied + 1)
	r.pubLastApplied.Store(int64(r.lastApplied))
	r.fireFences()
	r.maybeRecovered()
}

// --- Introspection -----------------------------------------------------
//
// Ready, Recovered, HasLeader, LastApplied and AppliedCount are backed by
// published atomics and safe to poll from any goroutine (the live
// runtime's application threads do exactly that). The remaining accessors
// touch loop-confined state and must be called from the node's executor —
// in practice, from simulator context or via env.Post.

// Ready reports whether local state is restored (reads can be served).
func (r *Replica) Ready() bool { return r.pubReady.Load() }

// Recovered reports whether a post-crash incarnation has fully
// re-synchronized (true from the start for a fresh replica).
func (r *Replica) Recovered() bool { return r.pubRecovered.Load() }

// HasLeader reports whether this replica has observed an established
// consensus leader — i.e. whether submissions can make progress now.
func (r *Replica) HasLeader() bool { return r.pubHasLeader.Load() }

// LastApplied returns the highest applied instance.
func (r *Replica) LastApplied() paxos.InstanceID {
	return paxos.InstanceID(r.pubLastApplied.Load())
}

// AppliedCount returns actions applied in this incarnation.
func (r *Replica) AppliedCount() int64 { return r.pubApplied.Load() }

// CheckpointStats reports this incarnation's checkpoint activity: full
// base images written, delta layers written, and their total bytes.
// Safe from any goroutine.
func (r *Replica) CheckpointStats() (bases, deltas, bytes int64) {
	return r.pubCkptBases.Load(), r.pubCkptDeltas.Load(), r.pubCkptBytes.Load()
}

// LeaderHint reports whether this replica led its consensus group at the
// last publish tick (≤100 ms stale; safe from any goroutine). Use
// IsLeader for the loop-confined exact answer.
func (r *Replica) LeaderHint() bool { return r.pubIsLeader.Load() }

// BacklogHint returns the decided-but-unapplied instance count at the
// last publish tick (≤100 ms stale; safe from any goroutine). Use
// Backlog for the loop-confined exact answer.
func (r *Replica) BacklogHint() int64 { return r.pubBacklog.Load() }

// AdmissionState returns the proposer's current write-admission grade.
// The web tier's write gate reads it on the node that owns the queue.
// Loop-confined.
func (r *Replica) AdmissionState() paxos.AdmissionState {
	if r.en == nil {
		return paxos.AdmissionClear
	}
	return r.en.AdmissionState()
}

// Machine exposes the local state machine for read-only queries. Reads
// are served locally without total ordering, as in RobustStore where 95 %
// (browsing) to 50 % (ordering) of interactions are local reads (§5.2).
// Loop-confined.
func (r *Replica) Machine() StateMachine { return r.sm }

// IsLeader reports whether this replica currently coordinates consensus.
// Loop-confined.
func (r *Replica) IsLeader() bool { return r.en != nil && r.en.IsLeader() }

// Engine exposes the consensus engine for tests and metrics.
// Loop-confined.
func (r *Replica) Engine() *paxos.Engine { return r.en }
