package paxos

import (
	"maps"
	"slices"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/seqwin"
	"robuststore/internal/slab"
)

// Config parameterizes an Engine. Zero fields take the documented
// defaults.
type Config struct {
	// FastEnabled allows fast rounds (Fast Paxos), matching the paper's
	// Treplica configuration (§2). The engine runs them where they are
	// possible: in a group of four or more, where the fast quorum ⌈3N/4⌉
	// leaves an acceptor out, while at least that many replicas are alive
	// and no live one is reading its checkpoint (SetRestoring). Otherwise,
	// and in every group of three or fewer, it runs classic Paxos rounds.
	FastEnabled bool

	// BatchDelay is the least gap between two partial batches from this
	// proposer. A partial batch is proposed at the end of the instant that
	// queued it, so the commands submitted in one instant share one value,
	// unless this engine proposed a partial batch less than BatchDelay ago:
	// then it waits out the remainder, and the commands submitted meanwhile
	// join it. Full batches never wait. Default 5 ms.
	BatchDelay time.Duration

	// MaxBatchCmds flushes a batch early once it holds this many
	// commands. Default 64.
	MaxBatchCmds int

	// MaxInFlight bounds the number of proposed-but-undelivered batches
	// per node — the consensus pipeline depth. Proposals stream into
	// consecutive instance slots without waiting for earlier batches to
	// be learned; once the window is full, further commands queue
	// locally and are packed into full batches as slots free up
	// (backpressure grows the group-commit size under load). The bound
	// is enforced uniformly: no proposal path — size-triggered,
	// timer-triggered, or queue drain — may overshoot it. Default 5.
	MaxInFlight int

	// HeartbeatInterval is the failure-detector ping period. Default
	// 100 ms.
	HeartbeatInterval time.Duration

	// LeaderTimeout is the base suspicion timeout before a node tries
	// to become leader; it is staggered by node index to avoid duels.
	// Default 600 ms.
	LeaderTimeout time.Duration

	// RetryTimeout re-proposes a value that has not been learned.
	// Default 800 ms.
	RetryTimeout time.Duration

	// SweepInterval is the housekeeping period (retries, gap recovery,
	// catch-up checks). Default 50 ms.
	SweepInterval time.Duration

	// CmdSize returns the modeled serialized size of a command in
	// bytes; nil means 128 bytes each.
	CmdSize func(cmd any) int64

	// Deliver is invoked, in instance order and exactly once per fresh
	// value, with each decided command batch. No-ops and duplicate
	// values (possible under fast-path collisions and retries) are
	// filtered out before delivery. Required.
	Deliver func(inst InstanceID, v *Value)

	// OnCatchUpGap is invoked when peers can no longer supply the log
	// suffix this node needs (they compacted past it); the layer above
	// must fall back to a full state transfer. May be nil.
	OnCatchUpGap func(firstAvail InstanceID)

	// Members lists the consensus group. Nil means every node of the
	// runtime; deployments with non-member nodes (the web tier's proxy)
	// must set it, and runtimes hosting several independent groups
	// (internal/shard) give each group its own disjoint member set. The
	// slice must be identical (same IDs, same order) on every member:
	// ballot ownership is computed round-robin over the member *index*,
	// so the IDs themselves may be arbitrary.
	Members []env.NodeID

	// Learner marks this engine as a non-voting learner: it receives
	// learn/commit traffic and applies the log but never votes, proposes,
	// or counts toward any quorum. A learner is not listed in Members
	// (Members still names the voting group it observes) and sends no
	// pings — voters must not mistake it for a quorum participant.
	Learner bool

	// Learners lists the non-voting learner nodes attached to this
	// group. Voters forward decided values (chosenMsg) and heartbeats to
	// them so learners track the log and the current ballot without ever
	// being counted. Must be empty on learner engines themselves.
	Learners []env.NodeID
}

const (
	// fastDecisionTimeout is the least time the coordinator waits for a
	// fast quorum on an instance before starting coordinated recovery (a
	// hedge). The leader sweep checks it, so the hedge starts at the first
	// sweep past it: with the default 50 ms SweepInterval, 40–90 ms after
	// the instance's first vote.
	fastDecisionTimeout = 40 * time.Millisecond

	// catchUpChunk bounds entries per catch-up reply.
	catchUpChunk = 512
)

func (c Config) withDefaults() Config {
	if c.BatchDelay == 0 {
		c.BatchDelay = 5 * time.Millisecond
	}
	if c.MaxBatchCmds == 0 {
		c.MaxBatchCmds = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 5
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.LeaderTimeout == 0 {
		c.LeaderTimeout = 600 * time.Millisecond
	}
	if c.RetryTimeout == 0 {
		c.RetryTimeout = 800 * time.Millisecond
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 50 * time.Millisecond
	}
	if c.CmdSize == nil {
		c.CmdSize = func(any) int64 { return 128 }
	}
	return c
}

// Engine is one replica's consensus state: proposer, acceptor, learner
// and (when it owns the current ballot) leader/coordinator, colocated as
// in Treplica. All methods must be called from the node's executor.
type Engine struct {
	cfg     Config
	e       env.Env
	me      env.NodeID
	myIdx   int // index of me within members (ballot ownership)
	n       int
	members []env.NodeID

	booted  bool
	started time.Time
	epoch   int64 // incarnation identifier embedded in ValueIDs

	// Proposer. cmdQueue is a FIFO ring: qHead indexes the next command
	// to propose and the consumed prefix is reclaimed in place, so deep
	// backlogs drain in O(n) total instead of reallocating the remainder
	// per batch. cmdSeq numbers the commands (see Value).
	nextSeq    int64
	cmdSeq     int64     // number of the last command submitted
	batchTimer env.Timer // made on first use, re-armed after; pending while batchArmed
	batchArmed bool
	lastBatch  time.Time // when the last partial batch was proposed
	cmdQueue   []any
	qHead      int
	queueBytes int64
	wal        *walWriter
	adm        admissionController

	// outstanding holds the values proposed and not yet delivered, at their
	// ValueID.Seq (1, 2, 3, … per incarnation); a delivered one is zeroed
	// where it lies, and the window's floor follows the delivered prefix.
	// inFlight counts the live ones.
	outstanding seqwin.Window[int64, pendingValue]
	inFlight    int

	// log is the instance log: what this node promised, voted and learned
	// at each instance, in one slot. Its base is the lower of voteFloor and
	// retainedFrom — replay re-installs votes older than the boot's delivery
	// floor, and promises export them.
	log seqwin.Window[InstanceID, slot]

	// Acceptor (durable; rebuilt from the WAL on boot).
	promised   Ballot
	voteFloor  InstanceID // votes below were compacted away (compactRec.Floor)
	fastBallot Ballot     // fast round this acceptor may self-assign in
	fastFrom   InstanceID // floor of the fast self-assignment range
	nextFree   InstanceID // next candidate slot for self-assignment
	records    int64      // durable records ever appended (for Truncate)

	// Ballot tracking.
	curBallot      Ballot // highest leadership claim seen
	maxBallotSeq   int64  // highest ballot sequence seen anywhere
	lastLeaderSeen time.Time
	lastSeen       map[env.NodeID]time.Time
	leader         *leaderState // non-nil while this node leads

	// The restore signal: whether this node is reading its checkpoint
	// (SetRestoring; its pings say so), and the peers whose last ping said
	// they were. Only fastPossible decides anything from it.
	restoring     bool
	peerRestoring map[env.NodeID]bool

	// Learner.
	firstUnchosen InstanceID                         // next instance to deliver
	retainedFrom  InstanceID                         // decisions below were compacted away
	maxKnown      InstanceID                         // highest instance known decided cluster-wide
	delivered     map[env.NodeID]map[int64]*dedupSet // node -> epoch -> seqs
	catchUpAt     time.Time
	gapSince      time.Time

	// The records this incarnation builds per value, per decision and per
	// heartbeat, each kind from a slab of its own (package slab).
	values    slab.Slab[Value] // what it proposes, no-ops included
	votes     slab.Slab[acceptedMsg]
	announces slab.Slab[chosenMsg]
	accepts   slab.Slab[acceptMsg]
	pings     slab.Slab[pingMsg]
	cmds      slab.Slab[any] // command slices of batches of at most slabCmds

	stats Stats
}

// Stats counts what one engine incarnation's ordering path did: the work a
// fast round saves or costs, and what a value waits for when it is not
// decided at once.
type Stats struct {
	Announced  int64 // decisions this node announced as coordinator
	Collisions int64 // fast instances where no value could reach a fast quorum any more

	// Coordinated recoveries started (a timed-out one restarted counts
	// again), by cause: a collision; a hedge, for a fast instance still short
	// of a fast quorum after fastDecisionTimeout; a gap, an undecided
	// instance below the frontier with no vote seen.
	RecCollision, RecHedge, RecGap int64

	// RecNoPhase1 counts the recoveries above that skipped phase 1: the
	// coordinator's fast votes served as the promises of the recovery round.
	RecNoPhase1 int64

	Retries      int64 // own values re-proposed after RetryTimeout
	CatchUps     int64 // catch-up requests sent
	CatchUpEmpty int64 // catch-up replies that brought no entry
}

// Add adds o's counts to s.
func (s *Stats) Add(o Stats) {
	s.Announced += o.Announced
	s.Collisions += o.Collisions
	s.RecCollision += o.RecCollision
	s.RecHedge += o.RecHedge
	s.RecGap += o.RecGap
	s.RecNoPhase1 += o.RecNoPhase1
	s.Retries += o.Retries
	s.CatchUps += o.CatchUps
	s.CatchUpEmpty += o.CatchUpEmpty
}

// Stats returns the counts since this engine booted. Call it on the node's
// executor.
func (en *Engine) Stats() Stats { return en.stats }

// pendingValue is a proposed value awaiting delivery. The zero value marks
// a sequence number whose value was delivered.
type pendingValue struct {
	v        *Value
	lastSent time.Time
}

// live tells a pending value from a delivered one's place.
func (pv *pendingValue) live() bool { return pv.v != nil }

// slot is one instance of the log: 40 bytes, none of them a copy of a value.
// The zero slot is an instance this node knows nothing about, and each part
// reads as the missing map entry it replaces: promised is the zero ballot
// until hasPromise (effPromised tests the bit, replay and vote compare against
// the ballot), vote and chosen are nil until there is one.
type slot struct {
	promised Ballot // per-instance promise (coordinated recovery)

	// vote is this acceptor's vote: the very record its WAL holds and the
	// phase-2b message it sent, taken from the engine's vote slab, which never
	// hands it out again (see vote).
	vote *acceptedMsg

	// chosen is the decision: the value its proposer built, taken from this
	// node's own vote when that is the value decided, and otherwise from
	// whatever brought the news — the announcement, or a catch-up reply's
	// entry.
	chosen *Value

	has uint8
}

const hasPromise = 1

func (s *slot) setPromise(b Ballot) { s.promised, s.has = b, s.has|hasPromise }

// votedAt returns this acceptor's vote at inst, nil if it holds none.
func (en *Engine) votedAt(inst InstanceID) *acceptedMsg {
	if s := en.log.At(inst); s != nil {
		return s.vote
	}
	return nil
}

// votesFrom is the acceptor's one floor: its votes below it were compacted
// away, and at or above it the log holds every vote this node cast. The log's
// base is never above it — replay resets the log to the lower of a barrier's
// floor and the delivery floor, and Compact sets the two equal — so every
// vote a promise lists sits where an accept can replace it (onAccept).
func (en *Engine) votesFrom() InstanceID { return en.voteFloor }

// chosenAt returns the value this node knows decided at inst, if any.
func (en *Engine) chosenAt(inst InstanceID) (*Value, bool) {
	if s := en.log.At(inst); s != nil && s.chosen != nil {
		return s.chosen, true
	}
	return nil, false
}

// New creates an engine; Boot must be called before use.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Deliver == nil {
		panic("paxos: Config.Deliver is required")
	}
	return &Engine{
		cfg:           cfg,
		adm:           newAdmissionController(cfg.MaxInFlight * cfg.MaxBatchCmds),
		promised:      ballotNone,
		curBallot:     ballotNone,
		fastBallot:    ballotNone,
		maxBallotSeq:  -1,
		lastSeen:      make(map[env.NodeID]time.Time),
		peerRestoring: make(map[env.NodeID]bool),
		delivered:     make(map[env.NodeID]map[int64]*dedupSet),
	}
}

// Boot recovers the acceptor state from the WAL and joins the cluster.
// deliverFloor is the first instance the layer above still needs (one past
// its checkpoint); delivery resumes there while the missing suffix is
// learned from the active replicas — the recovery path of paper §2.
// ready, if non-nil, runs once the WAL has been replayed.
func (en *Engine) Boot(e env.Env, deliverFloor InstanceID, ready func()) {
	en.e = e
	en.wal = newWALWriter(e)
	en.me = e.ID()
	en.members = en.cfg.Members
	if en.members == nil {
		en.members = e.Peers()
	}
	en.myIdx = -1
	for i, m := range en.members {
		if m == en.me {
			en.myIdx = i
		}
	}
	if en.myIdx < 0 && !en.cfg.Learner {
		panic("paxos: this node is not listed in Members")
	}
	en.n = len(en.members)
	en.firstUnchosen = deliverFloor
	en.retainedFrom = deliverFloor
	en.nextFree = deliverFloor
	en.started = e.Now()
	en.epoch = e.Now().UnixNano()
	en.lastLeaderSeen = e.Now()
	e.Storage().ReadRecords(func(recs []env.Record, err error) {
		if err != nil {
			e.Logf("paxos: WAL read failed: %v", err)
			return
		}
		en.records = e.Storage().FirstIndex() + int64(len(recs))
		en.replay(recs)
		en.booted = true
		en.startTimers()
		en.requestCatchUp()
		if ready != nil {
			ready()
		}
	})
}

// replay rebuilds durable acceptor state from WAL records.
func (en *Engine) replay(recs []env.Record) {
	for _, r := range recs {
		switch d := r.Data.(type) {
		case promiseRec:
			if en.promised.Less(d.B) {
				en.promised = d.B
			}
			en.noteBallot(d.B)
		case instPromiseRec:
			if s := en.log.Ensure(d.Inst); s.promised.Less(d.B) {
				s.setPromise(d.B)
			}
			en.noteBallot(d.B)
		case *acceptedMsg:
			if s := en.log.Ensure(d.Inst); s.vote == nil || s.vote.B.LessEq(d.B) {
				s.vote = d
			}
			en.noteBallot(d.B)
		case compactRec:
			// The barrier replaces whatever came before it. An engine that
			// boots below the barrier's floor (delivery floor 0, say) still
			// votes there, so the log starts at the lower of the two.
			en.log.Reset(min(d.Floor, en.retainedFrom))
			for _, p := range d.InstPromised {
				en.log.Ensure(p.Inst).setPromise(p.B)
			}
			for _, a := range d.Accepted {
				en.log.Ensure(a.Inst).vote = a
			}
			en.promised = d.Promised
			en.voteFloor = d.Floor
			en.noteBallot(d.Promised)
		}
	}
	for i, s := range en.log.From(en.nextFree) {
		if s.vote != nil {
			en.nextFree = i + 1
		}
	}
}

func (en *Engine) noteBallot(b Ballot) {
	if b.Seq > en.maxBallotSeq {
		en.maxBallotSeq = b.Seq
	}
}

// startTimers starts the ping and sweep loops: one timer each, re-armed at
// the bottom of its callback.
func (en *Engine) startTimers() {
	var ping, sweep env.Timer
	// Learners are silent: a learner ping would register in the voters'
	// failure detectors and inflate their live count past the real quorum.
	if !en.cfg.Learner {
		// Stagger the first ping so nodes do not tick in lockstep.
		ping = en.e.After(time.Duration(en.e.Rand().Int63n(int64(en.cfg.HeartbeatInterval))), func() {
			en.sendPing()
			ping.Reset(en.cfg.HeartbeatInterval)
		})
	}
	sweep = en.e.After(time.Duration(en.e.Rand().Int63n(int64(en.cfg.SweepInterval))), func() {
		en.sweep()
		sweep.Reset(en.cfg.SweepInterval)
	})
}

// --- Status ------------------------------------------------------------

// FirstUnchosen returns the next instance to be delivered locally.
func (en *Engine) FirstUnchosen() InstanceID { return en.firstUnchosen }

// MaxKnown returns the highest instance this node knows to be decided
// somewhere in the cluster.
func (en *Engine) MaxKnown() InstanceID { return en.maxKnown }

// IsLeader reports whether this node currently leads.
func (en *Engine) IsLeader() bool { return en.leader != nil && en.leader.established }

// CurrentBallot returns the highest leadership ballot seen.
func (en *Engine) CurrentBallot() Ballot { return en.curBallot }

// FastActive reports whether the current ballot runs in fast mode.
func (en *Engine) FastActive() bool { return en.curBallot.Fast }

// AliveCount returns the failure detector's current live-node estimate
// (including this node).
func (en *Engine) AliveCount() int { return en.aliveCount() }

// SetRestoring announces, in this node's heartbeat from the next ping on,
// whether it is reading its checkpoint from the local disk. Its WAL syncs
// then queue behind that read, so while any live member is restoring, the
// leader orders in classic rounds (fastPossible).
func (en *Engine) SetRestoring(on bool) { en.restoring = on }

// Restoring reports what this node's heartbeat announces: whether it is
// reading its checkpoint.
func (en *Engine) Restoring() bool { return en.restoring }

// Backlog returns how many decided-but-undelivered instances this node
// still has to apply — the queue-resynchronization backlog of §5.6.
func (en *Engine) Backlog() int64 { return int64(en.maxKnown - en.firstUnchosen + 1) }

// owner resolves ballot b to the member node that owns it: round-robin
// over the member index, mapped back through the (arbitrary) member IDs.
func (en *Engine) owner(b Ballot) env.NodeID {
	idx := b.Owner(en.n)
	if idx < 0 {
		return -1
	}
	return en.members[idx]
}

func (en *Engine) aliveCount() int {
	now := en.e.Now()
	alive := 1 // self
	for id, t := range en.lastSeen {
		if id != en.me && en.seenWithin(now, t) {
			alive++
		}
	}
	return alive
}

// seenWithin reports whether a peer last heard from at t still looks alive
// at now: heard within three heartbeats.
func (en *Engine) seenWithin(now, t time.Time) bool {
	return now.Sub(t) <= 3*en.cfg.HeartbeatInterval
}

// --- Proposer ----------------------------------------------------------

// Submit proposes one application command for total ordering. Commands
// are batched (group commit) and delivered through Config.Deliver on every
// replica. Submit never blocks; flow control is by MaxInFlight batching,
// with queue pressure graded through AdmissionState.
//
// It returns the command's number: one more than the previous Submit's on
// this engine, starting at 1. The delivered Value that carries the command
// locates it by that number (see Value), under this engine's Epoch.
func (en *Engine) Submit(cmd any) int64 {
	if en.cfg.Learner {
		panic("paxos: Submit on a learner engine")
	}
	en.cmdQueue = append(en.cmdQueue, cmd)
	en.cmdSeq++
	n := en.cmdSeq // numbered before pump, which may already propose it
	en.queueBytes += en.cfg.CmdSize(cmd)
	en.pump()
	return n
}

// Epoch identifies this engine's incarnation: the ID.Epoch of every value
// it proposes.
func (en *Engine) Epoch() int64 { return en.epoch }

// queueLen is the number of commands waiting to be proposed.
func (en *Engine) queueLen() int { return len(en.cmdQueue) - en.qHead }

// pump streams queued commands into the proposal pipeline: full batches
// go out while MaxInFlight slots are free, and a leftover partial batch
// leaves on the batch timer: at the end of this instant, armed with no
// wait so that it runs after what is already scheduled for the instant (as
// the WAL defers its flush) and every command submitted in the instant
// joins it, or, if the last partial batch left less than BatchDelay ago,
// once BatchDelay has passed since. Every path into the pipeline runs
// through here, so the in-flight cap is uniform — a deferred flush can
// never overshoot the window.
func (en *Engine) pump() {
	for en.queueLen() >= en.cfg.MaxBatchCmds && en.inFlight < en.cfg.MaxInFlight {
		en.proposeNext(en.cfg.MaxBatchCmds)
	}
	if en.queueLen() > 0 && en.inFlight < en.cfg.MaxInFlight && !en.batchArmed {
		en.batchArmed = true
		wait := max(0, en.lastBatch.Add(en.cfg.BatchDelay).Sub(en.e.Now()))
		if en.batchTimer == nil {
			en.batchTimer = en.e.After(wait, en.batchTimeout)
		} else {
			en.batchTimer.Reset(wait)
		}
	}
	en.compactQueue()
	en.adm.update(en.queueLen(), en.queueBytes)
}

// batchTimeout proposes the partial batch that pump deferred, and records
// when it left: the next partial batch leaves no sooner than BatchDelay
// after it.
func (en *Engine) batchTimeout() {
	en.batchArmed = false
	if n := en.queueLen(); n > 0 && en.inFlight < en.cfg.MaxInFlight {
		en.proposeNext(min(n, en.cfg.MaxBatchCmds))
		en.lastBatch = en.e.Now()
	}
	en.pump()
}

// slabCmds is the largest batch whose command slice is carved from a slab;
// a larger one gets a slice of its own, so a full 64-command batch wastes
// no slab tail.
const slabCmds = 8

// proposeNext packs the next n queued commands into one value, carved from
// the value slab, and proposes it. The commands are copied out so the ring
// slots can be reclaimed: a small batch into a slice carved from a slab, a
// larger one into a slice of its own.
func (en *Engine) proposeNext(n int) {
	first := en.cmdSeq - int64(en.queueLen()) + 1
	var cmds []any
	if n <= slabCmds {
		cmds = en.cmds.Carve(n)
	} else {
		cmds = make([]any, n)
	}
	copy(cmds, en.cmdQueue[en.qHead:en.qHead+n])
	for i := en.qHead; i < en.qHead+n; i++ {
		en.cmdQueue[i] = nil // release for GC
	}
	en.qHead += n
	var bytes int64
	for _, c := range cmds {
		bytes += en.cfg.CmdSize(c)
	}
	en.queueBytes -= bytes
	en.nextSeq++
	v := en.values.Next()
	v.ID, v.Cmds, v.Size, v.First = ValueID{Node: en.me, Epoch: en.epoch, Seq: en.nextSeq}, cmds, bytes+64, first
	*en.outstanding.Ensure(v.ID.Seq) = pendingValue{v: v, lastSent: en.e.Now()}
	en.inFlight++
	en.propose(v)
}

// noOp builds a no-op filler value, carved from the value slab and
// attributed to this node. seq must be positive: the negated ID.Seq is what
// marks the value (proposals count their own ID.Seq up from 1).
func (en *Engine) noOp(seq int64) *Value {
	v := en.values.Next()
	v.ID, v.Size = ValueID{Node: en.me, Epoch: en.epoch, Seq: -seq - 1}, 32
	return v
}

// compactQueue reclaims the consumed queue prefix: a drained queue resets
// in place, and a large consumed prefix slides the live suffix down —
// amortized O(1) per command, never O(queue) per batch.
func (en *Engine) compactQueue() {
	switch {
	case en.qHead == 0:
	case en.qHead == len(en.cmdQueue):
		en.cmdQueue = en.cmdQueue[:0]
		en.qHead = 0
	case en.qHead > 1024 && en.qHead > len(en.cmdQueue)/2:
		n := copy(en.cmdQueue, en.cmdQueue[en.qHead:])
		tail := en.cmdQueue[n:]
		for i := range tail {
			tail[i] = nil
		}
		en.cmdQueue = en.cmdQueue[:n]
		en.qHead = 0
	}
}

// AdmissionState returns the proposer's current write-admission grade.
// Callers upstream of Submit use it to pace or hold new writes while the
// local backlog is deep.
func (en *Engine) AdmissionState() AdmissionState { return en.adm.state }

// QueueDepth returns the number of commands waiting behind the
// MaxInFlight window (not yet proposed).
func (en *Engine) QueueDepth() int { return en.queueLen() }

// propose routes a value into the protocol according to the current mode.
func (en *Engine) propose(v *Value) {
	if !en.booted {
		return
	}
	switch {
	case en.curBallot.Fast && !en.IsLeader():
		// Fast path: straight to the acceptors.
		en.broadcast(fastProposeMsg{V: v})
	case en.IsLeader():
		en.leaderPropose(v)
	default:
		leader := en.owner(en.curBallot)
		if leader >= 0 && leader != en.me {
			en.e.Send(leader, forwardMsg{V: v})
		}
		// With no leader the value stays outstanding and the retry
		// sweep re-proposes it once a leader emerges.
	}
}

// --- Message handling ---------------------------------------------------

// Handle processes a consensus message and reports whether the message
// belonged to this engine. The layer above (internal/core) multiplexes the
// node's Receive between the engine and its own transfer protocol.
func (en *Engine) Handle(from env.NodeID, msg env.Message) bool {
	switch m := msg.(type) {
	case *pingMsg:
		en.onPing(from, m)
	case prepareMsg:
		en.onPrepare(from, m)
	case promiseMsg:
		en.onPromise(from, m)
	case nackMsg:
		en.onNack(from, m)
	case *acceptMsg:
		en.onAccept(from, m)
	case *acceptedMsg:
		en.onAccepted(from, m)
	case *chosenMsg:
		en.onChosen(m.Inst, m.V)
	case anyMsg:
		en.onAny(from, m)
	case fastProposeMsg:
		en.onFastPropose(from, m)
	case forwardMsg:
		en.onForward(from, m)
	case recQueryMsg:
		en.onRecQuery(from, m)
	case recInfoMsg:
		en.onRecInfo(from, m)
	case catchUpReqMsg:
		en.onCatchUpReq(from, m)
	case catchUpReplyMsg:
		en.onCatchUpReply(from, m)
	default:
		return false
	}
	return true
}

func (en *Engine) broadcast(msg env.Message) {
	for _, p := range en.members {
		en.e.Send(p, msg)
	}
}

func (en *Engine) sendPing() {
	// One record: the members and the learners are sent the same message.
	m := en.pings.Next()
	m.B, m.Leader, m.FirstUnchosen, m.Restoring = en.curBallot, en.IsLeader(), en.firstUnchosen, en.restoring
	en.broadcast(m)
	// Heartbeats also flow to attached learners so they track the current
	// ballot (catch-up targeting) and the decided frontier. Learners never
	// answer, so this is one-way.
	for _, l := range en.cfg.Learners {
		en.e.Send(l, m)
	}
}

func (en *Engine) onPing(from env.NodeID, m *pingMsg) {
	en.lastSeen[from] = en.e.Now()
	if m.Restoring {
		en.peerRestoring[from] = true
	} else {
		delete(en.peerRestoring, from)
	}
	en.noteBallot(m.B)
	if m.Leader {
		if en.curBallot.Less(m.B) {
			en.adoptBallot(m.B)
		}
		if m.B == en.curBallot {
			en.lastLeaderSeen = en.e.Now()
		}
	}
	if m.FirstUnchosen-1 > en.maxKnown {
		en.maxKnown = m.FirstUnchosen - 1
	}
}

// adoptBallot records a higher leadership claim and abandons any local
// leadership.
func (en *Engine) adoptBallot(b Ballot) {
	en.curBallot = b
	en.noteBallot(b)
	en.lastLeaderSeen = en.e.Now()
	if en.owner(b) != en.me {
		en.leader = nil
	}
}

// --- Learner -----------------------------------------------------------

// onChosen learns that v was decided at inst. v is kept, not copied: like
// every value, it is shared.
func (en *Engine) onChosen(inst InstanceID, v *Value) {
	if inst > en.maxKnown {
		en.maxKnown = inst
	}
	if inst < en.firstUnchosen {
		return // already delivered or compacted
	}
	s := en.log.Ensure(inst)
	if s.chosen != nil {
		en.advance()
		return
	}
	if s.vote != nil && s.vote.V.ID == v.ID {
		v = s.vote.V // the pointer this node holds anyway, not the messenger's
	}
	s.chosen = v
	if inst >= en.nextFree {
		en.nextFree = inst + 1
	}
	if en.IsLeader() { // a bid holds no record, and establish sets nextInstance
		en.leader.onDecided(inst, en.firstUnchosen)
	}
	en.advance()
}

// advance delivers the contiguous chosen prefix.
func (en *Engine) advance() {
	for {
		v, ok := en.chosenAt(en.firstUnchosen)
		if !ok {
			break
		}
		inst := en.firstUnchosen
		en.firstUnchosen++
		en.gapSince = time.Time{}
		if pv := en.outstanding.At(v.ID.Seq); pv != nil && pv.live() && pv.v.ID == v.ID {
			en.settle(pv)
		}
		if !v.NoOp() && en.markDelivered(v.ID) {
			en.cfg.Deliver(inst, v)
		}
	}
	en.pump()
}

// settle retires one of this node's own values, now delivered, and lets the
// floor of outstanding follow the delivered prefix.
func (en *Engine) settle(pv *pendingValue) {
	*pv = pendingValue{}
	en.inFlight--
	floor := en.outstanding.Base()
	for floor < en.outstanding.End() && !en.outstanding.At(floor).live() {
		floor++
	}
	en.outstanding.DropBelow(floor)
}

// markDelivered records a value id and reports whether it was fresh.
func (en *Engine) markDelivered(id ValueID) bool {
	byEpoch := en.delivered[id.Node]
	if byEpoch == nil {
		byEpoch = make(map[int64]*dedupSet)
		en.delivered[id.Node] = byEpoch
	}
	d := byEpoch[id.Epoch]
	if d == nil {
		d = &dedupSet{over: make(map[int64]bool)}
		byEpoch[id.Epoch] = d
	}
	return d.add(id.Seq)
}

// isDelivered reports whether a value id was already applied.
func (en *Engine) isDelivered(id ValueID) bool {
	byEpoch := en.delivered[id.Node]
	if byEpoch == nil {
		return false
	}
	d := byEpoch[id.Epoch]
	return d != nil && d.has(id.Seq)
}

// dedupSet tracks delivered per-node sequence numbers: everything <= base
// plus a sparse overflow set.
type dedupSet struct {
	base int64
	over map[int64]bool
}

// add records seq and reports whether it was new.
func (d *dedupSet) add(seq int64) bool {
	if seq <= d.base || d.over[seq] {
		return false
	}
	d.over[seq] = true
	d.fold()
	return true
}

// fold moves the base up through the sequences that now follow it.
func (d *dedupSet) fold() {
	for d.over[d.base+1] {
		d.base++
		delete(d.over, d.base)
	}
}

func (d *dedupSet) has(seq int64) bool { return seq <= d.base || d.over[seq] }

// --- Catch-up ----------------------------------------------------------

func (en *Engine) requestCatchUp() {
	if !en.booted {
		return
	}
	en.catchUpAt = en.e.Now()
	target := en.owner(en.curBallot)
	if target < 0 || target == en.me {
		// Pick the lowest-id recently seen member (deterministic).
		for _, id := range en.members {
			t, ok := en.lastSeen[id]
			if ok && id != en.me && en.seenWithin(en.e.Now(), t) {
				target = id
				break
			}
		}
	}
	if target < 0 || target == en.me {
		return
	}
	en.stats.CatchUps++
	en.e.Send(target, catchUpReqMsg{From: en.firstUnchosen, Max: catchUpChunk})
}

func (en *Engine) onCatchUpReq(from env.NodeID, m catchUpReqMsg) {
	reply := catchUpReplyMsg{FirstAvail: en.retainedFrom, LastKnown: en.maxKnown}
	start := m.From
	if start < en.retainedFrom {
		start = en.retainedFrom
	}
	for i := start; len(reply.Entries) < m.Max; i++ {
		v, ok := en.chosenAt(i)
		if !ok {
			break
		}
		reply.Entries = append(reply.Entries, chosenEntry{Inst: i, V: v})
	}
	en.e.Send(from, reply)
}

func (en *Engine) onCatchUpReply(from env.NodeID, m catchUpReplyMsg) {
	if m.LastKnown > en.maxKnown {
		en.maxKnown = m.LastKnown
	}
	if len(m.Entries) == 0 {
		en.stats.CatchUpEmpty++
	}
	gap := m.FirstAvail > en.firstUnchosen && en.firstUnchosen <= en.maxKnown
	for i := range m.Entries {
		en.onChosen(m.Entries[i].Inst, m.Entries[i].V)
	}
	if gap && m.FirstAvail > en.firstUnchosen {
		// The peer compacted past what we need: log replay alone
		// cannot re-synchronize this replica.
		if en.cfg.OnCatchUpGap != nil {
			en.cfg.OnCatchUpGap(m.FirstAvail)
		}
		return
	}
	if en.firstUnchosen <= en.maxKnown {
		// Still behind: keep streaming.
		en.requestCatchUp()
	}
}

// SkipTo abandons delivery below floor after an out-of-band state
// transfer (remote checkpoint install): the layer above has already
// restored a state covering all instances < floor.
func (en *Engine) SkipTo(floor InstanceID) {
	if floor <= en.firstUnchosen {
		return
	}
	// The decisions below floor go; the votes stay until Compact.
	for i, s := range en.log.From(en.firstUnchosen) {
		if i >= floor {
			break
		}
		s.chosen = nil
	}
	en.firstUnchosen = floor
	if en.retainedFrom < floor {
		en.retainedFrom = floor
	}
	if en.nextFree < floor {
		en.nextFree = floor
	}
	en.advance()
	en.requestCatchUp()
}

// DeliveredState is the checkpointable dedup summary: per node and
// incarnation epoch, the values applied.
type DeliveredState map[env.NodeID]map[int64]Delivered

// Delivered is one proposer incarnation's applied values: every sequence up
// to Base, and the ones above it applied out of order, ascending. Over is
// what keeps a value applied out of order before a checkpoint, and chosen
// again at an instance after it, from being applied twice by a replica
// restarted from that checkpoint.
type Delivered struct {
	Base int64
	Over []int64
}

// SetDelivered seeds the dedup state after a state transfer so commands
// already contained in an installed checkpoint are not re-applied when
// they reappear as duplicates. The values of this incarnation that the
// checkpoint applied will never be delivered here: they are settled — no
// longer retried, no longer in flight — and returned in submission order,
// for the layer above to complete their commands.
func (en *Engine) SetDelivered(state DeliveredState) []*Value {
	for node, byEpoch := range state {
		dst := en.delivered[node]
		if dst == nil {
			dst = make(map[int64]*dedupSet)
			en.delivered[node] = dst
		}
		for epoch, got := range byEpoch {
			d := dst[epoch]
			if d == nil {
				d = &dedupSet{over: make(map[int64]bool)}
				dst[epoch] = d
			}
			if d.base < got.Base {
				d.base = got.Base
				for s := range d.over {
					if s <= got.Base {
						delete(d.over, s)
					}
				}
			}
			for _, s := range got.Over {
				if s > d.base {
					d.over[s] = true
				}
			}
			d.fold()
		}
	}
	var absorbed []*Value
	for _, pv := range en.outstanding.From(en.outstanding.Base()) {
		if pv.live() && en.isDelivered(pv.v.ID) {
			absorbed = append(absorbed, pv.v)
		}
	}
	// Settled after the walk: settling moves the window's floor.
	for _, v := range absorbed {
		en.settle(en.outstanding.At(v.ID.Seq))
	}
	if absorbed != nil {
		en.pump()
	}
	return absorbed
}

// DeliveredSeqs returns the dedup summary for embedding in checkpoints.
func (en *Engine) DeliveredSeqs() DeliveredState {
	out := make(DeliveredState, len(en.delivered))
	for node, byEpoch := range en.delivered {
		m := make(map[int64]Delivered, len(byEpoch))
		for epoch, d := range byEpoch {
			var over []int64
			if len(d.over) > 0 {
				over = slices.Sorted(maps.Keys(d.over))
			}
			m[epoch] = Delivered{Base: d.base, Over: over}
		}
		out[node] = m
	}
	return out
}

// --- Compaction --------------------------------------------------------

// Compact discards consensus state for instances <= through, which the
// layer above has made durable in an application checkpoint (so through is
// below FirstUnchosen). The log's floor moves up past them, and what is left
// of the acceptor state is re-written as a compaction barrier so the WAL
// prefix can be truncated.
func (en *Engine) Compact(through InstanceID) {
	if through < en.retainedFrom {
		return
	}
	en.retainedFrom = through + 1
	en.voteFloor = en.retainedFrom
	en.log.DropBelow(en.retainedFrom)
	rec := compactRec{Floor: en.retainedFrom, Promised: en.promised}
	var size int64 = 128
	// The barrier is a WAL record: the walk lists what is left of the log
	// in instance order, the same bytes on every replay of the same history.
	for i, s := range en.log.From(en.retainedFrom) {
		if s.has&hasPromise != 0 {
			rec.InstPromised = append(rec.InstPromised, instPromiseRec{Inst: i, B: s.promised})
		}
		if s.vote != nil {
			rec.Accepted = append(rec.Accepted, s.vote)
			size += 32 + s.vote.V.Size
		}
	}
	barrierIdx := en.records
	en.appendRecord(env.Record{Data: rec, Size: size}, walDone{fn: func(error) {
		en.e.Storage().Truncate(barrierIdx, nil)
	}})
}

// appendRecord writes a durable record through the WAL writer (group
// commit) and tracks the global record index.
func (en *Engine) appendRecord(rec env.Record, done walDone) {
	en.records++
	en.wal.append(rec, done)
}

// --- Housekeeping ------------------------------------------------------

func (en *Engine) sweep() {
	if !en.booted {
		return
	}
	now := en.e.Now()

	// Election: suspect the leader after a timeout staggered by this
	// member's index in the group, so the same index waits as long in every
	// group whatever its node IDs. Learners never bid — they observe
	// whichever ballot the voters establish.
	timeout := en.cfg.LeaderTimeout + time.Duration(en.myIdx)*en.cfg.LeaderTimeout/2
	if !en.cfg.Learner && !en.IsLeader() && (en.leader == nil || !en.leader.established) &&
		now.Sub(en.lastLeaderSeen) > timeout && en.aliveCount() >= ClassicQuorum(en.n) {
		if en.leader == nil || now.Sub(en.leader.startedAt) > en.cfg.LeaderTimeout {
			en.startPrepare()
		}
	}

	// Leader duties: mode changes, gap recovery, proposal retries.
	if en.leader != nil && en.leader.established {
		en.leaderSweep(now)
	}

	// Value retries: outstanding batches not yet learned, in submission
	// order.
	for _, pv := range en.outstanding.From(0) {
		if pv.live() && now.Sub(pv.lastSent) > en.cfg.RetryTimeout {
			pv.lastSent = now
			en.stats.Retries++
			en.propose(pv.v)
		}
	}

	// Catch-up: behind the cluster or stuck on a gap.
	behind := en.maxKnown >= en.firstUnchosen
	if behind {
		if en.gapSince.IsZero() {
			en.gapSince = now
		}
		stuck := now.Sub(en.gapSince) > 2*en.cfg.SweepInterval
		idle := now.Sub(en.catchUpAt) > 4*en.cfg.SweepInterval
		if stuck && idle {
			en.requestCatchUp()
		}
	} else {
		en.gapSince = time.Time{}
	}
}
