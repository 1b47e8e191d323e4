package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// inUse reports whether any part of a leader's record is in use.
func inUse(r *instState) bool {
	return r.proposing() || r.recovering() || r.voting() || !r.gapAt.IsZero()
}

// heldRecords counts the records in the leader's window.
func heldRecords(ls *leaderState) int {
	n := 0
	for _, r := range ls.insts.From(0) {
		if *r != nil {
			n++
		}
	}
	return n
}

// checkLeader asserts what the leader's bookkeeping must agree on, after every
// message a test cluster's engine handles: every inflightID entry names a
// record that is proposing that value; no recovering record proposes at the
// leadership's own ballot (a client value taking a recovered instance, as a
// fresh leader's first value once did); a record held in the window has a part
// in use, and a record on the free list has none. Across the cluster's life, an
// instance of a recovery round (s, Rec) is proposed one value: the fast votes
// were its promises once, and a second value there could be chosen beside the
// first.
func (c *testCluster) checkLeader(en *Engine) {
	c.t.Helper()
	ls := en.leader
	if ls == nil {
		return
	}
	for id, inst := range ls.inflightID {
		if r := ls.at(inst); !r.proposing() || r.prop.v.ID != id {
			c.t.Fatalf("node %d: value %v is listed at instance %d, where no proposal of it stands", en.me, id, inst)
		}
	}
	for inst, r := range ls.insts.From(0) {
		switch r := *r; {
		case r == nil:
		case !inUse(r):
			c.t.Fatalf("node %d: instance %d holds a record with no part in use", en.me, inst)
		case r.recovering() && r.proposing() && r.prop.b == ls.b:
			c.t.Fatalf("node %d: instance %d is recovering at %v and proposing at the leader's ballot %v", en.me, inst, r.rec.b, ls.b)
		case r.proposing() && r.prop.b.Rec:
			if c.recVals == nil {
				c.recVals = make(map[recProposal]ValueID)
			}
			at := recProposal{r.prop.b, inst}
			if id, ok := c.recVals[at]; ok && id != r.prop.v.ID {
				c.t.Fatalf("node %d: instance %d proposes %v at %v, where it proposed %v", en.me, inst, r.prop.v.ID, r.prop.b, id)
			}
			c.recVals[at] = r.prop.v.ID
		}
	}
	for _, r := range ls.free {
		if inUse(r) {
			c.t.Fatalf("node %d: a record on the free list is in use", en.me)
		}
	}
}

// fastLeader returns the established fast leader of c, failing the test if
// there is none.
func fastLeader(t *testing.T, c *testCluster) *Engine {
	t.Helper()
	for _, en := range c.engines {
		if en.IsLeader() && en.FastActive() {
			return en
		}
	}
	t.Fatal("no established fast leader")
	return nil
}

// TestLeaderWindowFloor: the leader's window lets go of what is decided and
// keeps what is not. 20,000 fast instances decided at an established leader
// leave no record held and the window's base within one of the first
// undelivered instance. A proposal that a SkipTo (a remote checkpoint install)
// leaves below the first undelivered instance is never decided there: it keeps
// its record and its inflightID entry, and holds the floor while later
// instances are decided and the sweep re-sends it, until the leadership ends.
func TestLeaderWindowFloor(t *testing.T) {
	t.Run("decided", func(t *testing.T) {
		const n, total = 5, 20_000
		c := newCluster(t, n, true, 57, sim.NetConfig{})
		for i := 0; i < 8; i++ {
			c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%n, fmt.Sprintf("warm-%d", i))
		}
		c.s.RunFor(4 * time.Second)
		en := fastLeader(t, c)
		ls := en.leader
		c.silence(en)
		first := en.firstUnchosen
		var votes [n]acceptedMsg
		for k := 0; k < total; k++ {
			inst := en.firstUnchosen
			v := &Value{ID: ValueID{Node: 9, Epoch: 1, Seq: int64(k) + 1}, Cmds: []any{"x"}, Size: 192}
			for from := range votes {
				votes[from] = acceptedMsg{B: ls.b, Inst: inst, V: v}
				en.onAccepted(env.NodeID(from), &votes[from])
			}
		}
		held, base := heldRecords(ls), ls.insts.Base()
		t.Logf("base %d, first undelivered %d, %d held, %d free", base, en.firstUnchosen, held, len(ls.free))
		if en.firstUnchosen != first+total {
			t.Fatalf("%d of %d fast instances delivered", en.firstUnchosen-first, total)
		}
		if held != 0 || len(ls.free) == 0 {
			t.Fatalf("records not released: %d held, %d free", held, len(ls.free))
		}
		if base > en.firstUnchosen || en.firstUnchosen-base > 1 {
			t.Fatalf("the window's base is %d with instance %d undelivered", base, en.firstUnchosen)
		}
	})

	t.Run("skipped", func(t *testing.T) {
		c := newCluster(t, 3, false, 23, sim.NetConfig{})
		c.submit(2*time.Second, 1, "before")
		c.s.RunFor(3 * time.Second)
		id := c.leaderIndex()
		if id < 0 {
			t.Fatal("no leader established")
		}
		lead := c.engines[id]
		ls := lead.leader
		v := &Value{ID: ValueID{Node: 9, Epoch: 1, Seq: 1}, Cmds: []any{"stuck"}, Size: 64}
		lead.leaderPropose(v)
		stuck := ls.inflightID[v.ID]
		lead.SkipTo(stuck + 10)
		decided := make([]Value, 300)
		for k := range decided {
			decided[k] = Value{ID: ValueID{Node: 9, Epoch: 2, Seq: int64(k) + 1}, Cmds: []any{fmt.Sprintf("d-%d", k)}, Size: 64}
			lead.onChosen(stuck+10+InstanceID(k), &decided[k])
		}
		holds := func(when string) {
			t.Helper()
			r := ls.at(stuck)
			if !r.proposing() || r.prop.v.ID != v.ID || ls.inflightID[v.ID] != stuck {
				t.Fatalf("%s: the proposal at %d lost its record or its inflightID entry", when, stuck)
			}
			if held, base := heldRecords(ls), ls.insts.Base(); held != 1 || base > stuck {
				t.Fatalf("%s: %d records held, the window's base at %d, past the proposal at %d", when, held, base, stuck)
			}
		}
		if lead.firstUnchosen != stuck+310 {
			t.Fatalf("first undelivered instance %d, want %d", lead.firstUnchosen, stuck+310)
		}
		holds("after the SkipTo")
		sent := ls.at(stuck).prop.lastSent
		c.s.RunFor(2 * time.Second)
		if lead.leader != ls {
			t.Fatal("the leadership ended while the sweep ran")
		}
		holds("after the sweeps")
		if !sent.Before(ls.at(stuck).prop.lastSent) {
			t.Fatal("the sweep did not re-send the proposal below the first undelivered instance")
		}
		lead.startPrepare() // a new bid, as after a mode change, starts with an empty window
		if nls := lead.leader; heldRecords(nls) != 0 || len(nls.inflightID) != 0 || nls.insts.Base() != lead.firstUnchosen {
			t.Fatalf("a new bid's window: %d held, %d listed, base %d", heldRecords(nls), len(nls.inflightID), nls.insts.Base())
		}
	})
}

// blockedFastLeader returns a cluster of five and its established fast leader,
// whose outgoing links are blocked: what it sends goes nowhere, so the test
// hands it votes and recovery replies itself. The leader timeout is long
// enough that the followers, who stop hearing its heartbeats, do not bid in
// the next few seconds.
func blockedFastLeader(t *testing.T) (*testCluster, *Engine) {
	testTune = func(cfg *Config) { cfg.LeaderTimeout = 10 * time.Second }
	defer func() { testTune = nil }()
	c := newCluster(t, 5, true, 63, sim.NetConfig{})
	c.submit(11*time.Second, 1, "warm")
	c.s.RunFor(12 * time.Second)
	c.requireDelivered(1, 1)
	en := fastLeader(t, c)
	c.silence(en)
	return c, en
}

// val is a client value whose ID orders by seq.
func val(seq int64) *Value {
	return &Value{ID: ValueID{Node: 9, Epoch: 1, Seq: seq}, Cmds: []any{fmt.Sprintf("v%d", seq)}, Size: 64}
}

// phase2 answers the recovery at inst from a classic quorum, members first,
// first+1, …, with the votes given at the leader's fast ballot (nil
// for none), which starts its phase 2.
func phase2(t *testing.T, en *Engine, inst InstanceID, first int, votes ...*Value) {
	t.Helper()
	r := en.leader.at(inst)
	for i, v := range votes {
		en.onRecInfo(env.NodeID(first+i), recInfoMsg{B: r.rec.b, Inst: inst, Voted: v != nil, VB: en.leader.b, V: v})
	}
	if !r.proposing() || r.prop.b != r.rec.b {
		t.Fatalf("the recovery's phase 2 at instance %d did not begin", inst)
	}
}

// TestRecoveryKeepsCountingFastVotes pins the overlap of a leader record's
// parts. n = 5, so a fast quorum is four votes and a classic quorum three.
// Votes for one value, then fastDecisionTimeout passes and the sweep hedges
// with a coordinated recovery; no recovery reply comes back. The fourth vote
// must still decide the instance by fast quorum — with the recovery only
// querying (a hedge over two votes, short of a classic quorum, runs phase 1;
// the third vote comes in while it does), and with its phase 2 already
// standing (a hedge over three proposes at once at the recovery round). And
// while a recovery's phase 2 stands — reached through phase 1 or from the
// votes — a collision does not restart the recovery until RetryTimeout has
// passed; the restarted recovery runs phase 1 at a fresh ballot, and its phase
// 2 then displaces the value proposed there.
func TestRecoveryKeepsCountingFastVotes(t *testing.T) {
	// hedge hands the leader a fast vote per value, one per member, and lets
	// the sweep start a hedging recovery.
	hedge := func(t *testing.T, c *testCluster, en *Engine, vals ...*Value) *instState {
		t.Helper()
		inst, hedges := en.firstUnchosen, en.Stats().RecHedge
		for from, v := range vals {
			en.onAccepted(env.NodeID(from), &acceptedMsg{B: en.leader.b, Inst: inst, V: v})
		}
		c.s.RunFor(100 * time.Millisecond)
		r := en.leader.at(inst)
		if en.Stats().RecHedge != hedges+1 || !r.recovering() || !r.voting() {
			t.Fatalf("after fastDecisionTimeout: %d hedges, recovering %v, voting %v", en.Stats().RecHedge-hedges, r.recovering(), r.voting())
		}
		if fromVotes := len(vals) >= ClassicQuorum(c.n); r.proposing() != fromVotes || fromVotes && r.prop.b != en.leader.b.recovery() {
			t.Fatalf("a hedge over %d votes: proposing %v at %v", len(vals), r.proposing(), r.prop.b)
		}
		return r
	}
	for _, standing := range []bool{false, true} {
		t.Run(fmt.Sprintf("phase2=%v", standing), func(t *testing.T) {
			c, en := blockedFastLeader(t)
			ls, inst, v := en.leader, en.firstUnchosen, val(1)
			if standing {
				hedge(t, c, en, v, v, v)
			} else {
				hedge(t, c, en, v, v)
				en.onAccepted(2, &acceptedMsg{B: ls.b, Inst: inst, V: v})
			}
			c.checkLeader(en)
			announced := en.Stats().Announced
			en.onAccepted(3, &acceptedMsg{B: ls.b, Inst: inst, V: v})
			if got, ok := en.chosenAt(inst); !ok || got.ID != v.ID {
				t.Fatalf("the fourth fast vote did not decide instance %d", inst)
			}
			if en.Stats().Announced != announced+1 || ls.at(inst) != nil || len(ls.inflightID) != 0 {
				t.Fatalf("decided: %d announcements, record %v, %d listed", en.Stats().Announced-announced, ls.at(inst), len(ls.inflightID))
			}
			c.checkLeader(en)
		})
	}

	t.Run("collision", func(t *testing.T) {
		for _, first := range []string{"queried", "from votes"} {
			t.Run(first, func(t *testing.T) {
				c, en := blockedFastLeader(t)
				ls, inst := en.leader, en.firstUnchosen
				votes := []*Value{val(1), val(2)} // the first recovery queries
				if first == "from votes" {
					votes = []*Value{val(1), val(1), val(2)} // a classic quorum: it proposes at once
				}
				r := hedge(t, c, en, votes...)
				if first == "queried" {
					phase2(t, en, inst, 0, val(1), val(2), nil)
				}
				votes = append(votes, val(3), val(4)) // by member; the last two collide
				late := func(from int) {
					en.onAccepted(env.NodeID(from), &acceptedMsg{B: ls.b, Inst: inst, V: votes[from]})
				}
				b, st := r.rec.b, en.Stats()
				late(len(votes) - 2)
				if en.Stats().Collisions != st.Collisions+1 || en.Stats().RecCollision != st.RecCollision || r.rec.b != b {
					t.Fatalf("a collision within RetryTimeout: %d collisions, %d recoveries, ballot %v → %v",
						en.Stats().Collisions-st.Collisions, en.Stats().RecCollision-st.RecCollision, b, r.rec.b)
				}
				c.s.RunFor(en.cfg.RetryTimeout)
				if r.rec.b != b || !r.proposing() || r.prop.b != b {
					t.Fatalf("the sweep restarted the recovery whose phase 2 stands: ballot %v → %v", b, r.rec.b)
				}
				late(len(votes) - 1)
				if en.Stats().RecCollision != st.RecCollision+1 || !b.Less(r.rec.b) || r.rec.b.Rec || en.Stats().Collisions != st.Collisions+1 {
					t.Fatalf("a collision after RetryTimeout: %d recoveries, ballot %v → %v", en.Stats().RecCollision-st.RecCollision, b, r.rec.b)
				}
				if !r.voting() || r.prop.b == r.rec.b {
					t.Fatal("the restarted recovery kept its old phase 2 or lost the votes")
				}
				// Its own phase 2 picks another value and displaces the one proposed
				// there, whose inflightID entry goes with it.
				displaced := r.prop.v.ID
				replies := make([]*Value, 3) // members 2 to 4, as they voted
				copy(replies, votes[2:])
				phase2(t, en, inst, 2, replies...)
				if _, listed := ls.inflightID[displaced]; listed || r.prop.v.ID == displaced || ls.inflightID[r.prop.v.ID] != inst {
					t.Fatalf("phase 2 proposes %v over %v; inflightID %v", r.prop.v.ID, displaced, ls.inflightID)
				}
				c.checkLeader(en)
			})
		}
	})
}

// TestCollisionLoserPlaced: a free choice takes a value the leader has not
// placed, when one is reported. n = 5, and values a < b. They reach the
// acceptors in opposite orders, so they collide at two instances: X gets the
// votes {a, a, b, b}, X+1 gets {b, b, a, a}. Neither collision forces a value,
// so neither recovers until the hedge, which recovers both from their votes, X
// first. X's recovery weighs {a, a, b, b} and proposes a, the lower ID. X+1's
// weighs {b, b, a, a}; a is being proposed at X, so X+1 must propose b.
// Proposing a there as well left b with no vote anywhere until its proposer
// re-sent it after RetryTimeout. The same holds for a hedge over two votes
// each, {a, b} and {b, a}, which runs phase 1 and chooses over the replies
// {a, b, none} and {b, a, none}; and when a new leader's promises leave two
// open instances a free choice over {a, b}.
func TestCollisionLoserPlaced(t *testing.T) {
	a, b := val(1), val(2)
	proposed := func(t *testing.T, ls *leaderState, x InstanceID) {
		t.Helper()
		for i, want := range []*Value{a, b} {
			inst := x + InstanceID(i)
			if r := ls.at(inst); !r.proposing() || r.prop.v.ID != want.ID || ls.inflightID[want.ID] != inst {
				t.Fatalf("instance %d proposes %v, want %v; inflightID %v", inst, r.prop.v.ID, want.ID, ls.inflightID)
			}
		}
	}

	vote := func(en *Engine, inst InstanceID, votes ...*Value) {
		for from, v := range votes {
			en.onAccepted(env.NodeID(from), &acceptedMsg{B: en.leader.b, Inst: inst, V: v})
		}
	}

	t.Run("from votes", func(t *testing.T) {
		c, en := blockedFastLeader(t)
		ls, x, st := en.leader, en.firstUnchosen, en.Stats()
		vote(en, x, a, a, b, b)
		vote(en, x+1, b, b, a, a)
		if got := en.Stats(); got.Collisions != st.Collisions+2 || got.RecCollision != st.RecCollision {
			t.Fatalf("%d collisions and %d recoveries, want 2 and none", got.Collisions-st.Collisions, got.RecCollision-st.RecCollision)
		}
		c.s.RunFor(100 * time.Millisecond)
		if got := en.Stats(); got.RecHedge != st.RecHedge+2 || got.RecNoPhase1 != st.RecNoPhase1+2 {
			t.Fatalf("%d hedges, %d of them from the votes, want 2 and 2", got.RecHedge-st.RecHedge, got.RecNoPhase1-st.RecNoPhase1)
		}
		proposed(t, ls, x)
		c.checkLeader(en)
	})

	// Two votes each, short of a classic quorum: the hedges run phase 1, and
	// the free choice is made over the recovery replies (onRecInfo).
	t.Run("recovery", func(t *testing.T) {
		c, en := blockedFastLeader(t)
		ls, x, st := en.leader, en.firstUnchosen, en.Stats()
		vote(en, x, a, b)
		vote(en, x+1, b, a)
		c.s.RunFor(100 * time.Millisecond)
		if got := en.Stats(); got.RecHedge != st.RecHedge+2 || got.RecNoPhase1 != st.RecNoPhase1 {
			t.Fatalf("%d hedges, %d of them from the votes, want 2 and none", got.RecHedge-st.RecHedge, got.RecNoPhase1-st.RecNoPhase1)
		}
		phase2(t, en, x, 0, a, b, nil)
		phase2(t, en, x+1, 0, b, a, nil)
		proposed(t, ls, x)
		c.checkLeader(en)
	})

	t.Run("establish", func(t *testing.T) {
		c, en := blockedFastLeader(t)
		fast, x := en.leader.b, en.firstUnchosen
		en.startPrepare()
		ls := en.leader
		for from, votes := range [][]acceptedInfo{
			{{B: fast, Inst: x, V: a}, {B: fast, Inst: x + 1, V: b}},
			{{B: fast, Inst: x, V: b}, {B: fast, Inst: x + 1, V: a}},
			nil,
		} {
			en.onPromise(env.NodeID(from), promiseMsg{B: ls.b, From: x, Accepted: votes})
		}
		if !ls.established || ls.nextInstance != x+2 {
			t.Fatalf("established %v, next instance %d, want %d", ls.established, ls.nextInstance, x+2)
		}
		proposed(t, ls, x)
		c.checkLeader(en)
	})
}

// TestCollisionsNeedNoRetry: with Fast Paxos on five nodes, every node submits
// at the same three moments, so the acceptors see the values in different
// orders and rounds collide. Each collision's recovery places a value not
// placed elsewhere: all fifteen are delivered and no proposer re-sends one
// after RetryTimeout (re-choosing the placed value, two were re-sent). The
// schedule is pinned: about a quarter of those tried (seeds 1–40, two to four
// rounds 25 or 40 ms apart) still re-send a value, against nearly all of them
// when the free choice ignores what is placed.
func TestCollisionsNeedNoRetry(t *testing.T) {
	const n, rounds = 5, 3
	c := newCluster(t, n, true, 3, sim.NetConfig{})
	for i := 0; i < rounds; i++ {
		for id := 0; id < n; id++ {
			c.submit(2*time.Second+time.Duration(i)*25*time.Millisecond, id, fmt.Sprintf("cmd-%d-%d", i, id))
		}
	}
	c.s.RunFor(6 * time.Second)
	var st Stats
	for _, en := range c.engines {
		st.Add(en.Stats())
	}
	for id := 0; id < n; id++ {
		c.requireDelivered(id, n*rounds)
	}
	c.checkConsistency()
	if st.Collisions == 0 || st.Retries != 0 {
		t.Fatalf("%d collisions, %d values re-sent after RetryTimeout; want some and none", st.Collisions, st.Retries)
	}
}
