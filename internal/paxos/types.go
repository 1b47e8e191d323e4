// Package paxos implements the consensus core of Treplica (paper §2): a
// multi-decree Paxos engine with an optional Fast Paxos mode, providing a
// totally ordered, durable log of command batches to the layer above
// (internal/core's asynchronous persistent queue).
//
// Protocol summary. Each log instance (slot) is decided by Paxos. Ballots
// are owned round-robin by node index; the owner of the highest ballot acts
// as leader/coordinator. A leader runs phase 1 once over the open instance
// range (multi-Paxos). In classic mode, proposers forward command batches
// to the leader, which assigns instances and runs phase 2 with majority
// quorums. In fast mode — enabled, per the paper's Treplica configuration,
// where the fast quorum ⌈3N/4⌉ leaves an acceptor out (N ≥ 4) and while at
// least that many replicas are alive — the coordinator issues an "any"
// message and proposers broadcast batches directly to acceptors, which
// self-assign instances; the coordinator detects a fast quorum (⌈3N/4⌉
// matching votes) or resolves collisions by coordinated recovery with the
// canonical Fast Paxos value-selection rule. Below a majority of live
// replicas the engine blocks, exactly as §2 describes.
//
// Durability: acceptors persist promises and accepts before replying, so a
// crashed replica rejoins with its consensus state intact (its application
// state is recovered by internal/core from a checkpoint plus the learned
// log suffix).
package paxos

import (
	"fmt"

	"robuststore/internal/env"
)

// InstanceID identifies a slot of the replicated log.
type InstanceID int64

// Ballot identifies a round of consensus. Seq orders ballots totally;
// ownership is round-robin (owner = Seq mod N). Fast marks a fast round:
// its phase-2 quorum is ⌈3N/4⌉ instead of a majority, and acceptors may
// accept proposer values directly. The owner fixes the Fast bit when it
// first uses the ballot, so a given Seq is never used both ways.
//
// Rec marks the recovery round of fast round Seq: a classic round that
// sorts after (Seq, fast) and before Seq+1, owned by Seq's owner. No round
// lies between the two, so the fast round's votes serve as the recovery
// round's promises (see recoverFromVotes).
type Ballot struct {
	Seq  int64
	Fast bool
	Rec  bool
}

// ballotNone sorts below every real ballot.
var ballotNone = Ballot{Seq: -1}

// Less orders ballots by sequence number, a recovery round right after the
// round of its Seq.
func (b Ballot) Less(o Ballot) bool { return b.Seq < o.Seq || b.Seq == o.Seq && !b.Rec && o.Rec }

// LessEq reports !o.Less(b).
func (b Ballot) LessEq(o Ballot) bool { return !o.Less(b) }

// recovery returns the recovery round of fast ballot b.
func (b Ballot) recovery() Ballot { return Ballot{Seq: b.Seq, Rec: true} }

// Owner returns the node index owning this ballot in a cluster of n nodes.
func (b Ballot) Owner(n int) env.NodeID {
	if b.Seq < 0 {
		return -1
	}
	return env.NodeID(b.Seq % int64(n))
}

// String implements fmt.Stringer.
func (b Ballot) String() string {
	kind := "c"
	switch {
	case b.Fast:
		kind = "f"
	case b.Rec:
		kind = "r"
	}
	return fmt.Sprintf("%d%s", b.Seq, kind)
}

// nextOwnedBallot returns the smallest ballot sequence strictly greater
// than after that is owned by node me in a cluster of n nodes.
func nextOwnedBallot(after int64, me env.NodeID, n int) int64 {
	b := after + 1
	shift := (int64(me) - b%int64(n) + int64(n)) % int64(n)
	return b + shift
}

// ClassicQuorum returns the majority quorum size ⌊N/2⌋+1.
func ClassicQuorum(n int) int { return n/2 + 1 }

// FastQuorum returns the fast quorum size ⌈3N/4⌉ used by Treplica
// (paper §2).
func FastQuorum(n int) int { return (3*n + 3) / 4 }

// quorum returns the phase-2 quorum size for ballot b.
func quorum(b Ballot, n int) int {
	if b.Fast {
		return FastQuorum(n)
	}
	return ClassicQuorum(n)
}

// ValueID identifies a proposed value (a batch of commands) uniquely
// across the cluster: the proposing node, its incarnation epoch, and a
// node-local sequence number. Delivery deduplicates on it, so a value
// chosen in two instances (possible under fast-mode collisions and
// retries) is applied once. The epoch — the node's boot timestamp —
// guarantees a restarted replica never reuses the identity of a value
// proposed by an earlier incarnation.
type ValueID struct {
	Node  env.NodeID
	Epoch int64
	Seq   int64
}

// Value is the unit of agreement: a batch of opaque application commands.
//
// Command numbering: an engine numbers the commands it is handed 1, 2, 3, …
// in Submit order, starting over with each incarnation, and packs them into
// values in that order. Cmds[i] is therefore command First+i of the
// incarnation (ID.Node, ID.Epoch) — the submitter needs no envelope around
// a command to recognise its own. Re-proposals and recovery carry a value
// whole, so the correspondence holds wherever the value is chosen.
//
// A Value (64 bytes) is built once, by its proposer, from the engine's value
// slab, and every message, vote, log slot and delivery that carries it holds
// it by pointer: nothing copies it. A no-op is marked by its negative ID.Seq
// rather than a flag of its own.
//
// Immutability: a Value, a vote (*acceptedMsg) and an announcement
// (*chosenMsg) are built once and then shared — by the log slot, the WAL and
// the network, and so, on either runtime, by every replica the message
// reaches. Nothing writes to one after it is built: a new vote or decision is
// a new record, and a retry, a recovery or a new leader's establish proposes
// the same *Value again. The same holds for what a Value refers to (Cmds),
// for the accepts and pings an engine sends, and for a catch-up reply's
// entries. The engine takes its values, votes, announcements, accepts, pings
// and small command slices from append-only slabs (package slab), which never
// hand a record out twice: a record reads what it was built with for as long
// as anything holds it.
type Value struct {
	ID    ValueID
	Cmds  []any
	Size  int64 // modeled serialized size in bytes
	First int64 // number of Cmds[0] within its incarnation; 0 for a no-op
}

// NoOp reports whether v is a gap filler, which carries no commands.
func (v Value) NoOp() bool { return v.ID.Seq < 0 }

// acceptedInfo reports an acceptor's vote for one instance: an acceptedMsg by
// value (the fields match, so one converts to the other) in a promise's list
// and in the reports selectValue weighs.
type acceptedInfo struct {
	B    Ballot
	Inst InstanceID
	V    *Value
}

// chosenEntry is a decided instance, used in catch-up transfers.
type chosenEntry struct {
	Inst InstanceID
	V    *Value
}

// --- Messages ---------------------------------------------------------
//
// All messages implement WireSize so the simulator can charge network
// bandwidth; sizes model a compact binary encoding.

const msgOverhead = 48

// prepareMsg is phase 1a for all instances >= From.
type prepareMsg struct {
	B    Ballot
	From InstanceID
}

func (m prepareMsg) WireSize() int64 { return msgOverhead }

// promiseMsg is phase 1b: a promise for B plus every vote at instances
// >= From — the prepare's From, or the promiser's vote-compaction floor where
// that is higher. Below From the promise says nothing: the promiser may have
// voted there and forgotten.
type promiseMsg struct {
	B        Ballot
	From     InstanceID
	Accepted []acceptedInfo
}

func (m promiseMsg) WireSize() int64 {
	s := int64(msgOverhead)
	for _, a := range m.Accepted {
		s += 24 + a.V.Size
	}
	return s
}

// nackMsg tells a proposer/leader its ballot was superseded.
type nackMsg struct {
	Promised Ballot
}

func (m nackMsg) WireSize() int64 { return msgOverhead }

// acceptMsg is phase 2a for one instance: one record for the whole fan-out,
// sent by pointer and never written again (see Value).
type acceptMsg struct {
	B    Ballot
	Inst InstanceID
	V    *Value
}

func (m acceptMsg) WireSize() int64 { return msgOverhead + m.V.Size }

// acceptedMsg is phase 2b, sent to the ballot owner (coordinator). It is
// also the durable record of the vote (Kind "accept"), written before it is
// sent, and the vote the acceptor's log slot holds: one record from the
// engine's vote slab, passed by pointer and never written again (see Value).
//
// Wire rule: in a plain classic ballot (neither Fast nor Rec) a 2b only
// acknowledges the coordinator's own proposal, which the coordinator reads
// from its proposal record, never from the 2b; so on the wire it is its
// ballot, instance and V.ID (72 B). A fast-round or (s, Rec) 2b carries the
// whole value: the coordinator weighs fast votes by their values. The WAL
// record is the whole vote either way (32 + V.Size).
type acceptedMsg struct {
	B    Ballot
	Inst InstanceID
	V    *Value
}

func (m acceptedMsg) WireSize() int64 {
	if m.B.Fast || m.B.Rec {
		return msgOverhead + m.V.Size
	}
	return msgOverhead + 24 // ballot, instance and V.ID
}

// chosenMsg announces a decided instance to all learners: one record for the
// whole fan-out, passed by pointer and never written again (see Value). A
// learner that did not vote for V keeps the announcement as its decision.
type chosenMsg struct {
	Inst InstanceID
	V    *Value
}

func (m chosenMsg) WireSize() int64 { return msgOverhead + m.V.Size }

// anyMsg opens fast self-assignment in ballot B for instances >= From
// (Fast Paxos phase 2a "any").
type anyMsg struct {
	B    Ballot
	From InstanceID
}

func (m anyMsg) WireSize() int64 { return msgOverhead }

// fastProposeMsg carries a proposer value directly to acceptors during a
// fast round. It is one pointer, so it is sent by value and boxes nothing.
type fastProposeMsg struct {
	V *Value
}

func (m fastProposeMsg) WireSize() int64 { return msgOverhead + m.V.Size }

// forwardMsg routes a proposer value to the leader in classic mode. It is
// one pointer, so it is sent by value and boxes nothing.
type forwardMsg struct {
	V *Value
}

func (m forwardMsg) WireSize() int64 { return msgOverhead + m.V.Size }

// recQueryMsg is a per-instance phase 1a used for coordinated recovery where
// the coordinator's fast votes cannot stand in for it: fewer than a classic
// quorum voted, gap repair, or a recovery restarted after RetryTimeout.
type recQueryMsg struct {
	B    Ballot
	Inst InstanceID
}

func (m recQueryMsg) WireSize() int64 { return msgOverhead }

// recInfoMsg is the per-instance phase 1b reply. V is nil unless Voted.
type recInfoMsg struct {
	B     Ballot
	Inst  InstanceID
	Voted bool
	VB    Ballot
	V     *Value
}

func (m recInfoMsg) WireSize() int64 {
	if m.V == nil {
		return msgOverhead
	}
	return msgOverhead + m.V.Size
}

// pingMsg is the failure-detector heartbeat. Leaders piggyback their
// first-unchosen watermark so lagging learners trigger catch-up. One record
// goes to every member and learner, by pointer (see Value).
type pingMsg struct {
	B             Ballot // highest ballot the sender has seen
	Leader        bool   // sender believes it is the leader of B
	FirstUnchosen InstanceID
	Restoring     bool // sender is reading its checkpoint (Engine.SetRestoring)
}

func (m pingMsg) WireSize() int64 { return msgOverhead }

// catchUpReqMsg asks a peer for chosen entries starting at From.
type catchUpReqMsg struct {
	From InstanceID
	Max  int
}

func (m catchUpReqMsg) WireSize() int64 { return msgOverhead }

// catchUpReplyMsg returns chosen entries. FirstAvail reports the oldest
// entry the sender still retains; if it is greater than the request's
// From, the requester cannot re-synchronize from the log alone and needs a
// state snapshot (handled by internal/core).
type catchUpReplyMsg struct {
	Entries    []chosenEntry
	FirstAvail InstanceID
	LastKnown  InstanceID
}

func (m catchUpReplyMsg) WireSize() int64 {
	s := int64(msgOverhead)
	for _, e := range m.Entries {
		s += 16 + e.V.Size
	}
	return s
}

// --- Durable records ---------------------------------------------------

// promiseRec persists a global promise.
type promiseRec struct {
	B Ballot
}

// instPromiseRec persists a per-instance promise (coordinated recovery).
type instPromiseRec struct {
	Inst InstanceID
	B    Ballot
}

// compactRec is a compaction barrier: it snapshots the acceptor state for
// open instances, each list in instance order, so everything before it can
// be truncated.
type compactRec struct {
	Floor        InstanceID // instances below are covered by the app checkpoint
	Promised     Ballot
	InstPromised []instPromiseRec
	Accepted     []*acceptedMsg // the votes themselves, as the log holds them
}
