package paxos

import (
	"slices"
	"time"

	"robuststore/internal/detsort"
	"robuststore/internal/env"
	"robuststore/internal/seqwin"
)

// This file implements the leader/coordinator role: phase 1 over the open
// instance range, classic phase 2, fast-round vote counting, collision
// detection and coordinated recovery, and gap repair.

type leaderState struct {
	b           Ballot
	startedAt   time.Time
	established bool
	prepFrom    InstanceID
	promises    map[env.NodeID]promiseMsg

	nextInstance InstanceID
	anySent      bool

	// insts holds a record for each instance the leader is working on; nil
	// where it is not. Its floor follows the lowest record in use (onDecided).
	insts      seqwin.Window[InstanceID, *instState]
	inflightID map[ValueID]InstanceID // where each value being proposed stands
	recSeq     int64
	lastModeAt time.Time

	// Records emptied by onDecided and taken again by the next instance that
	// needs one, and the scratch list onRecInfo folds a recovery quorum into.
	free    []*instState
	reports []acceptedInfo
}

// instState is what the leader is doing at one instance. Its parts overlap —
// a recovery keeps counting fast votes, and its phase 2 keeps its recState —
// so each part is in use while its time is set.
type instState struct {
	prop  proposal  // phase 2 in progress (classic or recovery)
	rec   recState  // coordinated recovery
	votes voteSet   // fast-round votes
	gapAt time.Time // when gap repair first noticed the instance undecided
}

func (r *instState) proposing() bool  { return r != nil && !r.prop.lastSent.IsZero() }
func (r *instState) recovering() bool { return r != nil && !r.rec.started.IsZero() }
func (r *instState) voting() bool     { return r != nil && !r.votes.firstAt.IsZero() }

// at returns the record at inst, nil if there is none.
func (ls *leaderState) at(inst InstanceID) *instState {
	if r := ls.insts.At(inst); r != nil {
		return *r
	}
	return nil
}

// record returns the record at inst, taking one off the free list (or making
// one) if there is none.
func (en *Engine) record(inst InstanceID) *instState {
	ls := en.leader
	r := ls.insts.Ensure(inst)
	if *r == nil {
		if k := len(ls.free) - 1; k >= 0 {
			*r, ls.free = ls.free[k], ls.free[:k]
		} else {
			*r = &instState{
				prop:  proposal{acks: tally{seen: make([]bool, en.n)}},
				rec:   recState{replies: make([]recInfoMsg, en.n), replied: tally{seen: make([]bool, en.n)}},
				votes: voteSet{votes: make([]fastVote, 0, en.n)},
			}
		}
	}
	return *r
}

// proposal is a phase 2 in progress.
type proposal struct {
	b        Ballot
	v        Value
	acks     tally
	lastSent time.Time
}

// tally counts the members heard from, each once.
type tally struct {
	seen []bool // by member index
	n    int
}

func (t *tally) add(idx int) {
	if !t.seen[idx] {
		t.seen[idx] = true
		t.n++
	}
}

// reset returns t emptied, for the record that is being used again.
func (t tally) reset() tally {
	clear(t.seen)
	return tally{seen: t.seen}
}

// voteSet is one instance's fast-round votes: at most one per acceptor, so
// at most n, counted by walking them.
type voteSet struct {
	votes    []fastVote
	firstAt  time.Time
	collided bool // counted in Stats.Collisions
}

type fastVote struct {
	from env.NodeID
	m    *acceptedMsg
}

// recState is a coordinated recovery in progress; its phase 2 has begun when
// a proposal stands at b. replies is indexed by member; replies[i] is
// meaningful where replied.seen[i].
type recState struct {
	b       Ballot
	replies []recInfoMsg
	replied tally
	started time.Time
}

// valueIDLess orders value ids (node, epoch, seq) for deterministic
// tie-breaking.
func valueIDLess(a, b ValueID) bool {
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	return a.Seq < b.Seq
}

// onDecided releases a decided instance's record and lets the window's floor
// follow the lowest record still in use — but not past floor, the first
// undelivered instance, nor nextInstance, where gap repair and the next
// proposal write. A proposal a SkipTo left below floor holds it until the
// leadership ends.
func (ls *leaderState) onDecided(inst, floor InstanceID) {
	if r := ls.at(inst); r != nil {
		if r.proposing() {
			delete(ls.inflightID, r.prop.v.ID)
		}
		clear(r.votes.votes) // drop the votes
		clear(r.rec.replies) // and the values' command slices; each part's next use resets its tally
		*r = instState{
			prop:  proposal{acks: r.prop.acks},
			rec:   recState{replies: r.rec.replies, replied: r.rec.replied},
			votes: voteSet{votes: r.votes.votes[:0]},
		}
		*ls.insts.At(inst) = nil
		ls.free = append(ls.free, r)
	}
	if ls.nextInstance <= inst {
		ls.nextInstance = inst + 1
	}
	lo, hi := ls.insts.Base(), min(floor, ls.nextInstance)
	for lo < hi && ls.at(lo) == nil {
		lo++
	}
	ls.insts.DropBelow(lo)
}

// fastPossible is the mode rule: a new ballot is fast when Fast Paxos is
// enabled, the fast quorum ⌈3N/4⌉ leaves an acceptor out, at least that many
// replicas look alive (the Treplica rule of §2), and no live member — this
// one included — is reading its checkpoint; classic otherwise. At n ≤ 3 the
// fast quorum is the whole group: a fast round would wait for the slowest
// acceptor's WAL sync, and stall on a failed one, while a classic round waits
// for the median one and costs only one message delay more. A restoring
// member's syncs queue behind its checkpoint read, so while one is alive a
// fast quorum that must count it, or every other member, waits for the
// slowest of them; a classic quorum leaves it out. (That is stricter than
// needed at N ≥ 8, where ⌈3N/4⌉ leaves two acceptors out.)
func (en *Engine) fastPossible() bool {
	if en.restoring {
		return false
	}
	now := en.e.Now()
	for id := range en.peerRestoring {
		if en.seenWithin(now, en.lastSeen[id]) {
			return false
		}
	}
	return en.cfg.FastEnabled && FastQuorum(en.n) < en.n && en.aliveCount() >= FastQuorum(en.n)
}

// startPrepare begins a leadership bid with a fresh ballot, fast or classic
// as fastPossible says.
func (en *Engine) startPrepare() {
	seq := nextOwnedBallot(en.maxBallotSeq, env.NodeID(en.myIdx), en.n)
	b := Ballot{Seq: seq, Fast: en.fastPossible()}
	en.noteBallot(b)
	// Our own bid is the highest leadership ballot we have seen: claim it
	// locally. Otherwise a heartbeat from the old leader, at a ballot between
	// our stale curBallot and our bid, would adopt that leadership and drop
	// the bid just as the acceptors promise it, leaving the group promised to
	// a ballot nobody owns (the stale-leader-rejoin livelock the partition
	// faultloads exposed). onFastPropose's nack is the fix's other half;
	// internal/mutants reverts each half in a row of its kill matrix.
	en.curBallot = b
	en.leader = &leaderState{
		b:          b,
		startedAt:  en.e.Now(),
		prepFrom:   en.firstUnchosen,
		promises:   make(map[env.NodeID]promiseMsg),
		inflightID: make(map[ValueID]InstanceID),
		lastModeAt: en.e.Now(),
	}
	en.leader.insts.Reset(en.leader.prepFrom)
	en.e.Logf("prepare ballot %v from %d", b, en.leader.prepFrom)
	en.broadcast(prepareMsg{B: b, From: en.leader.prepFrom})
}

func (en *Engine) onPromise(from env.NodeID, m promiseMsg) {
	ls := en.leader
	if ls == nil || ls.established || m.B != ls.b {
		return
	}
	ls.promises[from] = m
	if len(ls.promises) >= ClassicQuorum(en.n) {
		en.establish()
	}
}

// establish completes phase 1: pick safe values for every instance
// reported by the promise quorum, re-propose them, fill gaps with no-ops,
// open the fast range if the ballot is fast, and flush pending client
// values.
//
// The quorum speaks only for instances from open up, the highest From among
// its promises: a promiser that compacted its votes away reports none below
// its floor, and "no report" there does not mean "nothing chosen". Proposing
// anything in [prepFrom, open) — a no-op, or a client value through
// nextInstance — could choose a second value where one was chosen already.
// That range is left to the gap repair of leaderSweep (whose per-instance
// quorum cannot form without a node that still holds its votes: compacted
// acceptors do not answer recQuery) and to catch-up.
func (en *Engine) establish() {
	ls := en.leader
	ls.established = true
	en.adoptBallot(ls.b)
	en.e.Logf("established ballot %v", ls.b)

	// Group reports by instance, folding promises in member order: the
	// per-instance report lists feed selectValue, and map order here is
	// exactly the PR-6 establish() bug (outstanding values re-proposed in
	// map order across a leader change, breaking FIFO).
	byInst := make(map[InstanceID][]acceptedInfo)
	open, maxInst := ls.prepFrom, ls.prepFrom-1
	for _, from := range detsort.Keys(ls.promises) {
		open = max(open, ls.promises[from].From)
		for _, a := range ls.promises[from].Accepted {
			byInst[a.Inst] = append(byInst[a.Inst], a)
			if a.Inst > maxInst {
				maxInst = a.Inst
			}
		}
	}
	ls.nextInstance = max(maxInst+1, open)

	// Decide what to propose at every open instance.
	q := len(ls.promises)
	var noopSeq int64
	for i := open; i < ls.nextInstance; i++ {
		if v, ok := en.chosenAt(i); ok {
			// Already decided: just re-announce.
			en.announceChosen(i, v)
			continue
		}
		reports := byInst[i]
		v, found := selectValue(reports, q, en.n, en.placedElsewhere(i))
		if !found {
			noopSeq++
			v = noOpValue(en.me, en.epoch, en.nextSeq*1000+noopSeq)
		}
		en.classicPropose(i, ls.b, v)
	}

	if ls.b.Fast {
		ls.anySent = true
		en.broadcast(anyMsg{B: ls.b, From: ls.nextInstance})
	}

	// Re-propose our own outstanding values — in submission order, so
	// values that have never reached an instance yet are assigned
	// consecutive slots FIFO — and drain the local queue.
	for _, pv := range en.outstanding.From(0) {
		if pv.live() {
			pv.lastSent = en.e.Now()
			en.propose(pv.v)
		}
	}
	en.pump()
}

// selectValue applies the phase-1 value-selection rule to the reports a
// promise quorum of size q (out of n) made for one instance. For a
// classic top ballot the unique reported value is mandatory; for a fast
// top ballot value v is choosable iff at least q+⌈3n/4⌉−n quorum members
// voted v in it (Fast Paxos, Prop. 1); with no choosable value any
// reported value is safe, and with no reports at all nothing was chosen,
// so found=false lets the caller propose anything (a no-op).
//
// placed says which values the leader has already placed elsewhere. Only the
// free choice consults it: there any reported value is safe, so it takes one
// that is not placed if there is one.
func selectValue(reports []acceptedInfo, q, n int, placed func(ValueID) bool) (Value, bool) {
	if len(reports) == 0 {
		return Value{}, false
	}
	k := ballotNone
	for _, r := range reports {
		if k.Less(r.B) {
			k = r.B
		}
	}
	var atK []acceptedInfo
	for _, r := range reports {
		if r.B == k {
			atK = append(atK, r)
		}
	}
	if !k.Fast {
		return atK[0].V, true
	}
	counts := make(map[ValueID]int)
	values := make(map[ValueID]Value)
	for _, r := range atK {
		counts[r.V.ID]++
		values[r.V.ID] = r.V
	}
	threshold := q + FastQuorum(n) - n
	var bestID ValueID
	best := -1
	for id, c := range counts {
		if c >= threshold && (c > best || (c == best && valueIDLess(id, bestID))) {
			best = c
			bestID = id
		}
	}
	if best >= 0 {
		return values[bestID], true
	}
	// No value may have been (or can be) chosen at k: free choice.
	// Re-proposing one of the reported values keeps client progress. A value
	// not placed elsewhere comes first: when two values collide at two
	// instances, the second recovery must not pick the first one's value
	// again, leaving the other with no vote anywhere until its proposer
	// re-sends it after RetryTimeout. Then most votes, then lowest ValueID
	// for determinism.
	most := atK[0]
	mostCount, mostPlaced := counts[most.V.ID], placed(most.V.ID)
	for _, r := range atK[1:] {
		c, p := counts[r.V.ID], placed(r.V.ID)
		if p != mostPlaced {
			if !p {
				most, mostCount, mostPlaced = r, c, p
			}
			continue
		}
		if c > mostCount || (c == mostCount && valueIDLess(r.V.ID, most.V.ID)) {
			most, mostCount = r, c
		}
	}
	return most.V, true
}

// placedElsewhere reports whether the leader has placed a value anywhere but
// inst: it was delivered, or it is being proposed at another instance.
func (en *Engine) placedElsewhere(inst InstanceID) func(ValueID) bool {
	return func(id ValueID) bool {
		if en.isDelivered(id) {
			return true
		}
		at, ok := en.leader.inflightID[id]
		return ok && at != inst
	}
}

// leaderPropose assigns a value to a fresh instance (classic) or sends it
// down the fast path when a fast round is open.
func (en *Engine) leaderPropose(v Value) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	if en.isDelivered(v.ID) {
		return // duplicate of an already applied value
	}
	if _, dup := ls.inflightID[v.ID]; dup {
		return // already being proposed
	}
	if ls.b.Fast && ls.anySent {
		en.broadcast(fastProposeMsg{V: v})
		return
	}
	// An instance where a proposal or a recovery already stands is not free:
	// gap repair may be recovering one the leader has not reached yet.
	inst := ls.nextInstance
	for r := ls.at(inst); r.proposing() || r.recovering(); r = ls.at(inst) {
		inst++
	}
	ls.nextInstance = inst + 1
	en.classicPropose(inst, ls.b, v)
}

func (en *Engine) classicPropose(inst InstanceID, b Ballot, v Value) {
	ls := en.leader
	r := en.record(inst) // a recovery's phase 2 supersedes a proposal where it stands
	if r.proposing() && r.prop.v.ID != v.ID && ls.inflightID[r.prop.v.ID] == inst {
		// The displaced value is no longer being proposed: its retry must be
		// let through.
		delete(ls.inflightID, r.prop.v.ID)
	}
	r.prop = proposal{b: b, v: v, acks: r.prop.acks.reset(), lastSent: en.e.Now()}
	ls.inflightID[v.ID] = inst
	en.sendAccept(b, inst, v)
}

// sendAccept sends phase 2a for (b, inst, v) to every member: one record for
// the whole fan-out.
func (en *Engine) sendAccept(b Ballot, inst InstanceID, v Value) {
	m := en.accepts.next()
	m.B, m.Inst, m.V = b, inst, v
	en.broadcast(m)
}

func (en *Engine) onForward(from env.NodeID, m *forwardMsg) {
	if en.leader != nil && en.leader.established {
		en.leaderPropose(m.V)
	}
}

// onAccepted counts phase-2b votes: acknowledgements of classic or
// recovery proposals, and fast-round self-assigned votes.
func (en *Engine) onAccepted(from env.NodeID, m *acceptedMsg) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	if m.Inst < en.firstUnchosen {
		return // stale: already decided and delivered
	}
	if _, done := en.chosenAt(m.Inst); done {
		return
	}
	idx := slices.Index(en.members, from)
	if idx < 0 {
		return // only members vote
	}
	if r := ls.at(m.Inst); r.proposing() && r.prop.b == m.B {
		r.prop.acks.add(idx)
		if r.prop.acks.n >= quorum(m.B, en.n) {
			en.choose(m.Inst, r.prop.v)
		}
		return
	}
	if ls.b.Fast && m.B == ls.b {
		en.onFastVote(from, m)
	}
}

func (en *Engine) onFastVote(from env.NodeID, m *acceptedMsg) {
	r := en.record(m.Inst)
	if !r.voting() {
		r.votes.firstAt = en.e.Now() // a released record's vote set is empty
	}
	vs := &r.votes
	for i := range vs.votes {
		if vs.votes[i].from == from {
			return // one vote per acceptor per fast round
		}
	}
	vs.votes = append(vs.votes, fastVote{from: from, m: m})

	// The value with the most votes; only one can reach a fast quorum.
	best, bestAt, total := 0, 0, len(vs.votes)
	for i := range vs.votes {
		c := 0
		for j := range vs.votes {
			if vs.votes[j].m.V.ID == vs.votes[i].m.V.ID {
				c++
			}
		}
		if c > best {
			best, bestAt = c, i
		}
	}
	fq := FastQuorum(en.n)
	switch {
	case best >= fq:
		en.choose(m.Inst, vs.votes[bestAt].m.V)
	case best+(en.n-total) < fq:
		// Collision: no value can reach a fast quorum any more. That is
		// exactly that no value meets selectValue's threshold over these
		// votes, so they force none: recover now only once every member has
		// voted (or to restart a recovery). A free choice over a partial
		// collision could strand the value whose vote is still on its way;
		// the hedge recovers the instance if that vote never comes.
		if !vs.collided {
			vs.collided = true
			en.stats.Collisions++
		}
		if (r.recovering() || total == en.n) && en.recoverVoted(m.Inst, r) {
			en.stats.RecCollision++
		}
	}
}

// recoverVoted starts coordinated recovery at inst, where r holds fast votes,
// and reports whether it started one. With votes from a classic quorum and
// no recovery standing, the votes are the recovery round's promises
// (recoverFromVotes); otherwise, and to restart a recovery, it runs phase 1
// (startRecovery).
func (en *Engine) recoverVoted(inst InstanceID, r *instState) bool {
	if r.recovering() || len(r.votes.votes) < ClassicQuorum(en.n) {
		return en.startRecovery(inst)
	}
	en.recoverFromVotes(inst, r)
	return true
}

// recoverFromVotes recovers inst without a phase 1 (Fast Paxos, coordinated
// recovery): the fast votes r holds, from at least a classic quorum, are the
// phase-1b messages of the leader's recovery round (s, Rec), proposed there
// with the value selectValue picks over them. No round lies between the fast
// round s and (s, Rec), so no other coordinator can have chosen a value in
// between — a fresh ballot of ours would leave room for one. It is the only
// value proposed at (s, Rec) at inst: a restart runs startRecovery.
func (en *Engine) recoverFromVotes(inst InstanceID, r *instState) {
	ls := en.leader
	reports := ls.reports[:0]
	for _, fv := range r.votes.votes {
		reports = append(reports, acceptedInfo(*fv.m))
	}
	v, _ := selectValue(reports, len(reports), en.n, en.placedElsewhere(inst))
	clear(reports) // drop the values' command slices
	ls.reports = reports
	b := ls.b.recovery()
	r.rec.b, r.rec.started = b, en.e.Now() // no replies come: the votes were the promises
	en.stats.RecNoPhase1++
	en.classicPropose(inst, b, v)
}

// startRecovery runs coordinated recovery for one instance: a
// per-instance classic round at a fresh ballot owned by this coordinator,
// seeded with the acceptors' existing votes (recQuery/recInfo), then a
// classic phase 2 with the selected value. It reports whether it started
// one.
func (en *Engine) startRecovery(inst InstanceID) bool {
	ls := en.leader
	if ls == nil || !ls.established {
		return false
	}
	if r := ls.at(inst); r.recovering() && en.e.Now().Sub(r.rec.started) < en.cfg.RetryTimeout {
		return false // one attempt at a time
	}
	after := en.maxBallotSeq
	if ls.recSeq > after {
		after = ls.recSeq
	}
	ls.recSeq = nextOwnedBallot(after, env.NodeID(en.myIdx), en.n)
	b := Ballot{Seq: ls.recSeq} // recovery rounds are classic
	en.noteBallot(b)
	r := en.record(inst) // an attempt that timed out starts over where it stands
	r.rec = recState{b: b, replies: r.rec.replies, replied: r.rec.replied.reset(), started: en.e.Now()}
	en.broadcast(recQueryMsg{B: b, Inst: inst})
	return true
}

func (en *Engine) onRecInfo(from env.NodeID, m recInfoMsg) {
	ls := en.leader
	if ls == nil || !ls.established {
		return
	}
	r := ls.at(m.Inst)
	if !r.recovering() || r.rec.b != m.B || r.proposing() && r.prop.b == m.B {
		return // not this round, or its phase 2 has begun
	}
	rec := &r.rec
	idx := slices.Index(en.members, from)
	if idx < 0 {
		return // only members vote
	}
	rec.replied.add(idx)
	rec.replies[idx] = m
	if rec.replied.n < ClassicQuorum(en.n) {
		return
	}
	// Fold the recovery quorum in member order: selectValue's choice must
	// not depend on the order the replies came in (detorder invariant).
	reports := ls.reports[:0]
	for i := range rec.replies {
		if r := &rec.replies[i]; rec.replied.seen[i] && r.Voted {
			reports = append(reports, acceptedInfo{Inst: r.Inst, B: r.VB, V: r.V})
		}
	}
	v, found := selectValue(reports, rec.replied.n, en.n, en.placedElsewhere(m.Inst))
	clear(reports) // drop the values' command slices
	ls.reports = reports
	if !found {
		v = noOpValue(en.me, en.epoch, en.nextSeq*1000+int64(m.Inst%997)+1)
	}
	en.classicPropose(m.Inst, rec.b, v)
}

// choose finalizes an instance: the coordinator learns the decision where it
// makes it and announces it once. A vote or an ack that arrives later finds
// the instance decided and announces nothing.
func (en *Engine) choose(inst InstanceID, v Value) {
	if _, ok := en.chosenAt(inst); ok {
		return
	}
	m := en.announceChosen(inst, v)
	en.onChosen(inst, &m.V)
}

// announceChosen sends a decided instance to the other voting members and to
// any attached non-voting learners, which otherwise only hear about decisions
// through catch-up. This node already knows it, so none goes to itself.
func (en *Engine) announceChosen(inst InstanceID, v Value) *chosenMsg {
	m := en.announces.next()
	m.Inst, m.V = inst, v
	for _, p := range en.members {
		if p != en.me {
			en.e.Send(p, m)
		}
	}
	for _, l := range en.cfg.Learners {
		en.e.Send(l, m)
	}
	en.stats.Announced++
	return m
}

func (en *Engine) onNack(from env.NodeID, m nackMsg) {
	en.noteBallot(m.Promised)
	ls := en.leader
	if ls == nil || !ls.b.Less(m.Promised) || m.Promised == ls.b.recovery() {
		return // not above this leadership, or its own recovery round
	}
	if en.owner(m.Promised) != en.me {
		// Someone outpaced us; stand down and let their round proceed.
		en.leader = nil
		en.lastLeaderSeen = en.e.Now() // back off before re-electing
		return
	}
	if ls.recSeq < m.Promised.Seq {
		// A ballot of ours that this leadership never issued: an earlier
		// incarnation's recovery round, still promised at some instance. Every
		// retry there would be nacked again; bid above it (noteBallot has
		// raised the floor).
		en.startPrepare()
	}
}

// leaderSweep performs periodic leader duties.
func (en *Engine) leaderSweep(now time.Time) {
	ls := en.leader

	// Mode management: bid again when fastPossible changes its answer, as
	// the failure detector's live count crosses ⌈3N/4⌉ or a live member
	// starts or ends a checkpoint restore (never at n ≤ 3, where every round
	// is classic).
	desiredFast := en.fastPossible()
	if desiredFast != ls.b.Fast && now.Sub(ls.lastModeAt) > time.Second {
		en.e.Logf("mode change: fast=%v alive=%d", desiredFast, en.aliveCount())
		en.startPrepare()
		return
	}

	// Retry stalled phase-2 proposals (lost messages, recovering
	// acceptors), in instance order.
	for inst, rp := range ls.insts.From(0) {
		if r := *rp; r.proposing() && now.Sub(r.prop.lastSent) > en.cfg.RetryTimeout {
			r.prop.lastSent = now
			en.sendAccept(r.prop.b, inst, r.prop.v)
		}
	}

	// Gap repair: any instance below the frontier that stays undecided
	// blocks delivery everywhere; recover it. Every fast vote has a record,
	// so the window's end covers the highest one.
	frontier := max(ls.nextInstance-1, ls.insts.End()-1, en.maxKnown)
	const scanWindow = 256
	for i := en.firstUnchosen; i <= frontier && i < en.firstUnchosen+scanWindow; i++ {
		if _, done := en.chosenAt(i); done {
			continue
		}
		switch r := ls.at(i); {
		case r.proposing(), r.recovering() && now.Sub(r.rec.started) < en.cfg.RetryTimeout:
			// busy: a proposal or a recent recovery stands
		case r.voting():
			if now.Sub(r.votes.firstAt) > fastDecisionTimeout && en.recoverVoted(i, r) {
				en.stats.RecHedge++
			}
		case r == nil || r.gapAt.IsZero():
			en.record(i).gapAt = now
		case now.Sub(r.gapAt) > 2*fastDecisionTimeout && en.startRecovery(i):
			en.stats.RecGap++
		}
	}
}
