package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// walBench is one acceptor on a simulated node whose WAL was written before
// it booted, beside a silent peer (node 1) that records what it is sent.
// With no pings from the peer the acceptor never sees a quorum alive, so it
// never bids for leadership: everything it does answers the test.
type walBench struct {
	s    *sim.Sim
	en   *Engine
	sent []env.Message // to the peer, in order, heartbeats left out
}

type funcNode struct {
	start   func(env.Env)
	receive func(env.NodeID, env.Message)
}

func (n funcNode) Start(e env.Env)                          { n.start(e) }
func (n funcNode) Receive(from env.NodeID, msg env.Message) { n.receive(from, msg) }

// bootOnWAL makes recs durable on node 0, then boots an engine there that
// delivers from floor. A restart of node 0 boots a fresh engine the same way.
func bootOnWAL(t testing.TB, recs []env.Record, floor InstanceID) *walBench {
	t.Helper()
	b := &walBench{s: sim.New(sim.Config{Seed: 1})}
	b.s.AddNode(func() env.Node {
		return funcNode{
			start: func(e env.Env) {
				b.en = New(Config{Deliver: func(InstanceID, *Value) {}})
				b.en.Boot(e, floor, nil)
			},
			receive: func(from env.NodeID, msg env.Message) { b.en.Handle(from, msg) },
		}
	})
	b.s.AddNode(func() env.Node {
		return funcNode{
			start: func(env.Env) {},
			receive: func(_ env.NodeID, msg env.Message) {
				if _, ping := msg.(*pingMsg); !ping {
					b.sent = append(b.sent, msg)
				}
			},
		}
	})
	b.s.Storage(0).AppendBatch(recs, nil)
	b.s.RunFor(time.Second)
	b.s.StartAll()
	b.run()
	if !b.en.booted {
		t.Fatal("the engine did not finish replaying its WAL")
	}
	return b
}

// run lets the node's WAL read or write and the reply's delivery complete.
func (b *walBench) run() { b.s.RunFor(5 * time.Second) }

// handle delivers msg to the acceptor as if the peer had sent it.
func (b *walBench) handle(msg env.Message) {
	b.s.At(b.s.Now(), func() { b.en.Handle(1, msg) })
	b.run()
}

// promise returns the one message the peer has been sent, a promise.
func (b *walBench) promise(t *testing.T) promiseMsg {
	t.Helper()
	if len(b.sent) != 1 {
		t.Fatalf("the peer was sent %d messages, want one promise", len(b.sent))
	}
	p, ok := b.sent[0].(promiseMsg)
	if !ok {
		t.Fatalf("the peer was sent %T, want a promise", b.sent[0])
	}
	return p
}

func voteRecords(b Ballot, from, to InstanceID) []env.Record {
	var recs []env.Record
	for i := from; i < to; i++ {
		v := &Value{ID: ValueID{Node: 1, Epoch: 1, Seq: int64(i) + 1}, Size: 64}
		recs = append(recs, env.Record{Kind: "accept", Data: &acceptedMsg{B: b, Inst: i, V: v}, Size: 96})
	}
	return recs
}

func requireVotes(t *testing.T, p promiseMsg, from, to InstanceID) {
	t.Helper()
	if n := InstanceID(len(p.Accepted)); n != to-from {
		t.Fatalf("promise lists %d votes, want the %d at [%d, %d)", n, to-from, from, to)
	}
	for k, a := range p.Accepted {
		if a.Inst != from+InstanceID(k) {
			t.Fatalf("promise's vote %d is at instance %d, want %d: the list must ascend", k, a.Inst, from+InstanceID(k))
		}
	}
}

// TestReplayVotesBelowDeliverFloor: the votes in the WAL are the acceptor's
// whatever floor the layer above delivers from. With votes at instances 0..99
// and no compaction barrier, an engine booted at delivery floor 80 answers a
// prepare from instance 0 with all hundred, ascending. (A log based at the
// delivery floor would lose eighty of them.)
func TestReplayVotesBelowDeliverFloor(t *testing.T) {
	b := bootOnWAL(t, voteRecords(Ballot{Seq: 2}, 0, 100), 80)
	b.handle(prepareMsg{B: Ballot{Seq: 3}, From: 0})
	p := b.promise(t)
	if p.From != 0 {
		t.Fatalf("promise speaks from instance %d, want 0", p.From)
	}
	requireVotes(t, p, 0, 100)
}

// TestVoteBelowBarrierFloor: the other floor. An engine that finds a
// compaction barrier with floor 59 in its WAL but boots at delivery floor 0
// (its checkpoint is older than its barrier) still accepts a vote at instance
// 11, and the vote is durable: a restart finds it. (A log based at the
// barrier's floor has no place for it. This is what node 4 does in
// TestPromiseBelowCompactionFloor/restart=true, without the cluster around
// it.)
func TestVoteBelowBarrierFloor(t *testing.T) {
	barrier := env.Record{Kind: "compact", Data: compactRec{Floor: 59, Promised: Ballot{Seq: 2}}, Size: 128}
	b := bootOnWAL(t, []env.Record{barrier}, 0)
	if b.en.voteFloor != 59 || b.en.retainedFrom != 0 {
		t.Fatalf("booted with vote floor %d and retention floor %d, want 59 and 0", b.en.voteFloor, b.en.retainedFrom)
	}
	// Ballot 3 of 2 members is the peer's, so the vote's phase 2b goes there.
	v := &Value{ID: ValueID{Node: 1, Epoch: 1, Seq: 1}, Size: 64}
	b.handle(&acceptMsg{B: Ballot{Seq: 3}, Inst: 11, V: v})
	voted := false
	for _, m := range b.sent {
		if a, ok := m.(*acceptedMsg); ok && a.Inst == 11 && a.V.ID == v.ID {
			voted = true
		}
	}
	if !voted {
		t.Fatal("no phase 2b for instance 11 reached the ballot's owner")
	}
	b.s.Crash(0)
	b.s.Restart(0)
	b.run()
	if a := b.en.votedAt(11); a == nil || a.V.ID != v.ID || a.B.Seq != 3 {
		t.Fatalf("after a restart the vote at instance 11 is %+v", a)
	}
}

// TestRestartAboveVoteFloor: a group restarts whole. Instances 10–19 were
// chosen at ballot 1 by nodes 1 and 2. Node 2 delivered them and checkpointed
// (delivery floor 20), but its WAL's last compaction barrier has floor 10, so
// it boots with its votes from 10 up. Nodes 0 and 1 boot at floor 10 and never
// learned the decisions. Node 0 is elected; the promises report the votes, and
// it proposes them again at 10–19. It submits one more command, which lands at
// 20. Nodes 0 and 1 must deliver all eleven, and only consensus can give them
// 10–19: node 2 serves catch-up from 20 up.
//
// In classic mode the group is those three, and a round is decided by nodes 0
// and 1. In fast mode it is four, and node 3 never starts: three of four are
// alive, a fast quorum, so the leader's ballot is fast and needs all three
// live acks. Node 2 must then vote at 10–19, below its delivery floor: its
// promise listed its votes there, and an acceptor takes an accept wherever its
// log holds the slot. Were it to drop those accepts, the fast round would
// stall until the leader turned classic, which this schedule never makes it do.
func TestRestartAboveVoteFloor(t *testing.T) {
	const lo, hi = 10, 20
	old := Ballot{Seq: 1}
	promise := env.Record{Kind: "promise", Data: promiseRec{B: old}, Size: 32}
	var votes []env.Record
	barrier := compactRec{Floor: lo, Promised: old}
	for i := InstanceID(lo); i < hi; i++ {
		v := &Value{ID: ValueID{Node: 1, Epoch: 1, Seq: int64(i)}, Cmds: []any{fmt.Sprintf("old-%d", i)}, Size: 64}
		a := &acceptedMsg{B: old, Inst: i, V: v}
		votes = append(votes, env.Record{Kind: "accept", Data: a, Size: 96})
		barrier.Accepted = append(barrier.Accepted, a)
	}
	wals := [][]env.Record{
		{promise},
		append([]env.Record{promise}, votes...),
		{{Kind: "compact", Data: barrier, Size: 128}},
	}
	testModes(t, func(t *testing.T, fast bool) {
		wals, floors := wals, []InstanceID{lo, lo, hi}
		if fast {
			wals, floors = append(wals, nil), append(floors, 0) // node 3 never starts
		}
		c := newClusterOnWAL(t, fast, 7, wals, floors)
		c.submit(3*time.Second, 0, "new")
		c.s.RunFor(8 * time.Second)
		lead := c.engines[0]
		if !lead.IsLeader() || lead.leader.b.Fast != fast {
			t.Fatalf("node 0 leads %v at %v, want a leader with Fast %v", lead.IsLeader(), lead.curBallot, fast)
		}
		if got := c.delivered[2]; len(got) != 1 || got[0] != "new" {
			t.Fatalf("node 2 delivered %q, want [new]", got)
		}
		for id := 0; id < 2; id++ {
			got := c.delivered[id]
			for k, cmd := range got {
				if want := fmt.Sprintf("old-%d", lo+k); k < hi-lo && cmd != want || k == hi-lo && cmd != "new" {
					t.Fatalf("node %d delivered %q", id, got)
				}
			}
			c.requireDelivered(id, hi-lo+1)
		}
	})
}

// TestListedVotesCanBeReplaced: an acceptor answers every question from one
// floor. Over boots with a delivery floor, a compaction barrier's floor or
// none, and votes on either side of both, every instance a promise lists is
// one where an accept at the promised ballot draws a phase 2b and a recovery
// query at a higher one draws the new vote. A listed vote that an accept
// cannot replace stalls a round that needs every live ack, such as a fast
// round of four with one member down (TestRestartAboveVoteFloor).
func TestListedVotesCanBeReplaced(t *testing.T) {
	const split, end = 20, 30                                        // votes at [0, split), the barrier, votes at [split, end)
	old, next, rec := Ballot{Seq: 1}, Ballot{Seq: 3}, Ballot{Seq: 5} // all the peer's
	for _, barrier := range []InstanceID{-1, 10, split} {
		for _, deliver := range []InstanceID{0, 10, 15, 25, 40} {
			t.Run(fmt.Sprintf("barrier=%d/deliver=%d", barrier, deliver), func(t *testing.T) {
				wal, floor := voteRecords(old, 0, split), InstanceID(0)
				if barrier >= 0 {
					c := compactRec{Floor: barrier, Promised: old}
					for _, r := range wal[barrier:] {
						c.Accepted = append(c.Accepted, r.Data.(*acceptedMsg))
					}
					wal, floor = append(wal, env.Record{Kind: "compact", Data: c, Size: 128}), barrier
				}
				wal = append(wal, voteRecords(old, split, end)...)
				b := bootOnWAL(t, wal, deliver)
				b.handle(prepareMsg{B: next, From: 0})
				p := b.promise(t)
				if p.From != floor {
					t.Fatalf("promise speaks from instance %d, want the vote floor %d", p.From, floor)
				}
				requireVotes(t, p, floor, end)

				newValue := func(i InstanceID) ValueID { return ValueID{Node: 1, Epoch: 2, Seq: int64(i) + 1} }
				b.sent = nil
				b.s.At(b.s.Now(), func() {
					for _, a := range p.Accepted {
						b.en.Handle(1, &acceptMsg{B: next, Inst: a.Inst, V: &Value{ID: newValue(a.Inst), Size: 64}})
					}
				})
				b.run()
				voted := make(map[InstanceID]bool)
				for _, m := range b.sent {
					if a, ok := m.(*acceptedMsg); ok && a.B == next && a.V.ID == newValue(a.Inst) {
						voted[a.Inst] = true
					}
				}

				b.sent = nil
				b.s.At(b.s.Now(), func() {
					for _, a := range p.Accepted {
						b.en.Handle(1, recQueryMsg{B: rec, Inst: a.Inst})
					}
				})
				b.run()
				answered := make(map[InstanceID]bool)
				for _, m := range b.sent {
					if r, ok := m.(recInfoMsg); ok && r.B == rec && r.Voted && r.VB == next && r.V.ID == newValue(r.Inst) {
						answered[r.Inst] = true
					}
				}
				for _, a := range p.Accepted {
					if !voted[a.Inst] {
						t.Errorf("the promise listed instance %d, but an accept at %v there drew no phase 2b", a.Inst, next)
					}
					if !answered[a.Inst] {
						t.Errorf("the promise listed instance %d, but a recovery query at %v there drew no report of the new vote", a.Inst, rec)
					}
				}
			})
		}
	}
}

// TestPromiseListsTailAscending: a promise lists the votes from
// max(prepare's From, vote floor) up, in instance order, and nothing else —
// ten of the 5,000 an acceptor holds when asked from 4,990, five when a
// barrier has since put its vote floor at 4,995.
func TestPromiseListsTailAscending(t *testing.T) {
	votes := voteRecords(Ballot{Seq: 2}, 0, 5000)
	barrier := compactRec{Floor: 4995, Promised: Ballot{Seq: 2}}
	for _, r := range votes[4995:] {
		barrier.Accepted = append(barrier.Accepted, r.Data.(*acceptedMsg))
	}
	for _, tc := range []struct {
		name string
		wal  []env.Record
		from InstanceID
	}{
		{"from the prepare", votes, 4990},
		{"from the vote floor", append(votes[:5000:5000], env.Record{Kind: "compact", Data: barrier, Size: 128}), 4995},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := bootOnWAL(t, tc.wal, 0)
			b.handle(prepareMsg{B: Ballot{Seq: 3}, From: 4990})
			p := b.promise(t)
			if p.From != tc.from {
				t.Fatalf("promise speaks from instance %d, want %d", p.From, tc.from)
			}
			requireVotes(t, p, tc.from, 5000)
		})
	}
}

// BenchmarkPromiseAtRetainLimit: what an election costs each acceptor on the
// host clock — one prepare against a log holding the paper configuration's
// 400,000 retained votes, asking from 100 below the tip. The WAL append of
// the promise and the simulated send of the reply are inside the measure.
func BenchmarkPromiseAtRetainLimit(b *testing.B) {
	const retained = 400_000
	w := bootOnWAL(b, nil, 0)
	for i := InstanceID(0); i < retained; i++ {
		w.en.log.Ensure(i).vote = &acceptedMsg{Inst: i, B: Ballot{Seq: 2}, V: &Value{ID: ValueID{Node: 1, Epoch: 1, Seq: int64(i) + 1}, Size: 64}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.en.onPrepare(1, prepareMsg{B: Ballot{Seq: int64(i) + 3}, From: retained - 100})
		w.s.RunFor(20 * time.Millisecond)
	}
	if n := len(w.sent); n != b.N {
		b.Fatalf("%d prepares drew %d replies", b.N, n)
	}
}
