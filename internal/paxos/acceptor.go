package paxos

import "robuststore/internal/env"

// This file implements the acceptor role: durable promises and votes.
// Every state change is persisted to the WAL before the corresponding
// reply is sent, so a crashed acceptor rejoins without ever contradicting
// its earlier votes.
//
// The acceptor reads one floor, votesFrom, and nothing the learner keeps:
// what this node has delivered says nothing about the votes it holds.

// effPromised returns the effective promise for an instance: the global
// range promise combined with any per-instance promise made during
// coordinated recovery.
func (en *Engine) effPromised(inst InstanceID) Ballot {
	p := en.promised
	if s := en.log.At(inst); s != nil && s.has&hasPromise != 0 && p.Less(s.promised) {
		p = s.promised
	}
	return p
}

func (en *Engine) onPrepare(from env.NodeID, m prepareMsg) {
	if !en.booted {
		return
	}
	en.noteBallot(m.B)
	if !en.promised.Less(m.B) {
		en.e.Send(from, nackMsg{Promised: en.promised})
		return
	}
	en.promised = m.B
	// Below the floor the votes were compacted away, which is not "never
	// voted": the promise must say where its knowledge starts, or a new
	// leader would fill decided instances with no-ops (see establish).
	reply := promiseMsg{B: m.B, From: max(m.From, en.votesFrom())}
	// The promise's accepted list is network-visible: the walk lists the
	// votes in instance order, the same message bytes on every run, and
	// costs the tail from reply.From up, not the whole retained log.
	for _, s := range en.log.From(reply.From) {
		if s.vote != nil {
			reply.Accepted = append(reply.Accepted, acceptedInfo(*s.vote))
		}
	}
	en.appendRecord(env.Record{Kind: "promise", Data: promiseRec{B: m.B}, Size: 32},
		walDone{to: from, msg: reply})
}

func (en *Engine) onAccept(from env.NodeID, m *acceptMsg) {
	if !en.booted {
		return
	}
	en.noteBallot(m.B)
	if m.Inst < en.log.Base() {
		return // compacted away; the value was long since chosen
	}
	eff := en.effPromised(m.Inst)
	if m.B.Less(eff) {
		en.e.Send(from, nackMsg{Promised: eff})
		return
	}
	if cur := en.votedAt(m.Inst); cur != nil {
		if m.B.Less(cur.B) {
			return
		}
		if cur.B == m.B && cur.V.ID != m.V.ID {
			// One vote per ballot per instance: never overwrite a
			// same-ballot vote with a different value (fast-round
			// safety).
			return
		}
	}
	en.vote(m.Inst, m.B, m.V)
}

// vote durably accepts (b, v) at inst and acknowledges to the ballot
// owner (the coordinator counts phase-2b messages).
//
// The vote is one record: the log slot holds it, it is the WAL record's
// payload, and once durable it is the phase-2b message. It comes from the
// engine's vote slab, which never hands a record out twice, so nothing writes
// to it again; it holds v, the proposer's value, by pointer (see Value).
func (en *Engine) vote(inst InstanceID, b Ballot, v *Value) {
	s := en.log.Ensure(inst)
	vote := en.votes.Next()
	vote.B, vote.Inst, vote.V = b, inst, v
	s.vote = vote
	if b.Less(s.promised) {
		// Unreachable given the caller's checks; keep the invariant
		// explicit.
		return
	}
	s.setPromise(b)
	if inst >= en.nextFree {
		en.nextFree = inst + 1
	}
	en.appendRecord(env.Record{Kind: "accept", Data: vote, Size: 32 + v.Size},
		walDone{to: en.owner(b), msg: vote})
}

// onAny opens fast self-assignment: the coordinator of fast ballot m.B
// allows acceptors to vote for proposer values at any free instance
// >= m.From (Fast Paxos phase 2a "any").
func (en *Engine) onAny(from env.NodeID, m anyMsg) {
	if !en.booted || !m.B.Fast {
		return
	}
	en.noteBallot(m.B)
	if en.promised.Less(m.B) {
		// We missed the prepare (e.g. we were down); adopt the promise
		// now.
		en.promised = m.B
		en.appendRecord(env.Record{Kind: "promise", Data: promiseRec{B: m.B}, Size: 32}, walDone{})
	}
	if m.B.Less(en.promised) {
		return // a higher ballot exists; this fast round is dead
	}
	en.fastBallot = m.B
	en.fastFrom = m.From
	if en.nextFree < m.From {
		en.nextFree = m.From
	}
	if en.curBallot.Less(m.B) {
		en.adoptBallot(m.B)
	}
}

// onFastPropose handles a proposer value during a fast round: the
// acceptor assigns it to its next free instance and votes.
func (en *Engine) onFastPropose(from env.NodeID, m fastProposeMsg) {
	if !en.booted {
		return
	}
	fb := en.fastBallot
	if fb.Seq < 0 {
		return // no fast round opened here yet; the proposer will retry
	}
	if fb.Less(en.promised) {
		// The fast round was superseded by a higher promise. Unlike the
		// classic phase-2 path there is no per-message nack here, so a
		// coordinator whose round died this way would never learn it —
		// tell it, so it stands down and a live ballot can emerge. (One half
		// of the stale-leader-rejoin fix, startPrepare's claim of its own bid
		// the other; internal/mutants reverts each in a row of its matrix.)
		if c := en.owner(fb); c >= 0 && c != en.me {
			en.e.Send(c, nackMsg{Promised: en.promised})
		}
		return
	}
	if en.isDelivered(m.V.ID) {
		return // already applied everywhere we know of
	}
	// Skip instances that are taken, decided, or promised to a higher
	// ballot. Starting past the cluster-wide decided watermark keeps
	// concurrently proposing replicas roughly aligned and collisions
	// rare.
	if en.nextFree <= en.maxKnown {
		en.nextFree = en.maxKnown + 1
	}
	for {
		if en.nextFree < en.fastFrom {
			en.nextFree = en.fastFrom
		}
		inst := en.nextFree
		s := en.log.At(inst)
		if (s == nil || (s.vote == nil && s.chosen == nil)) && !fb.Less(en.effPromised(inst)) {
			en.vote(inst, fb, m.V)
			return
		}
		en.nextFree++
	}
}

// onRecQuery is the per-instance phase 1a of coordinated recovery: promise
// ballot m.B for this instance only and report our vote.
func (en *Engine) onRecQuery(from env.NodeID, m recQueryMsg) {
	if !en.booted {
		return
	}
	en.noteBallot(m.B)
	if m.Inst < en.votesFrom() {
		// Silent, not "never voted": the vote may have been compacted
		// away (establish relies on this quorum needing a real voter).
		return
	}
	eff := en.effPromised(m.Inst)
	if m.B.Less(eff) {
		en.e.Send(from, nackMsg{Promised: eff})
		return
	}
	reply := recInfoMsg{B: m.B, Inst: m.Inst}
	if a := en.votedAt(m.Inst); a != nil {
		reply.Voted = true
		reply.VB = a.B
		reply.V = a.V
	}
	if eff.Less(m.B) {
		en.log.Ensure(m.Inst).setPromise(m.B)
		en.appendRecord(env.Record{Kind: "instpromise", Data: instPromiseRec{Inst: m.Inst, B: m.B}, Size: 32},
			walDone{to: from, msg: reply})
		return
	}
	// Duplicate query at the already-promised ballot: reply directly.
	en.e.Send(from, reply)
}
