package paxos

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
)

// TestRecoveryWithoutPhase1: a coordinated recovery over the fast votes of a
// classic quorum runs no phase 1. n = 5, so a classic quorum is three votes and
// a fast quorum four. A hedge over {a, a, a} and a complete collision
// {a, a, b, b, c} each send no recQueryMsg and have no node write an
// instPromiseRec: the leader proposes at once at its recovery round (s, Rec),
// and the acks of three acceptors there decide the instance. A partial
// collision {a, a, b, b} forces no value and starts nothing until the hedge,
// which then recovers it the same way.
func TestRecoveryWithoutPhase1(t *testing.T) {
	a, b, c3 := val(1), val(2), val(3)
	for _, tc := range []struct {
		name  string
		votes []*Value
		hedge bool // the recovery waits for fastDecisionTimeout
	}{
		{"hedge", []*Value{a, a, a}, true},
		{"complete collision", []*Value{a, a, b, b, c3}, false},
		{"partial collision", []*Value{a, a, b, b}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, en := blockedFastLeader(t)
			ls, inst, st := en.leader, en.firstUnchosen, en.Stats()
			var accepts []*acceptMsg // what the leader proposed at inst
			c.onSend = func(from, _ env.NodeID, m env.Message) {
				switch m := m.(type) {
				case recQueryMsg:
					t.Errorf("node %d sent %+v", from, m)
				case *acceptMsg:
					if from == en.me && m.Inst == inst {
						accepts = append(accepts, m)
					}
				}
			}
			c.onWrite = func(node env.NodeID, rec env.Record) {
				if _, ok := rec.Data.(instPromiseRec); ok {
					t.Errorf("node %d wrote %+v", node, rec.Data)
				}
			}
			for from, v := range tc.votes {
				en.onAccepted(env.NodeID(from), &acceptedMsg{B: ls.b, Inst: inst, V: v})
			}
			r := ls.at(inst)
			if r.recovering() == tc.hedge {
				t.Fatalf("%d votes: recovering %v before fastDecisionTimeout", len(tc.votes), r.recovering())
			}
			if tc.hedge {
				c.s.RunFor(100 * time.Millisecond)
			}
			got, rb := en.Stats(), ls.b.recovery()
			started := got.RecCollision - st.RecCollision
			if tc.hedge {
				started = got.RecHedge - st.RecHedge
			}
			if started != 1 || got.RecNoPhase1 != st.RecNoPhase1+1 || r.rec.b != rb || !r.proposing() || r.prop.b != rb || r.prop.v.ID != a.ID {
				t.Fatalf("%d recoveries, %d without phase 1, recovering at %v, proposing %v at %v; want a at %v",
					started, got.RecNoPhase1-st.RecNoPhase1, r.rec.b, r.prop.v.ID, r.prop.b, rb)
			}
			if len(accepts) != c.n {
				t.Fatalf("the leader sent %d accepts at instance %d, want one to each of %d members", len(accepts), inst, c.n)
			}
			// Its links are cut: hand the proposal to a classic quorum of the
			// others, whose acks decide the instance.
			handed := 0
			for id, p := range c.engines {
				if env.NodeID(id) != en.me && handed < ClassicQuorum(c.n) {
					p.Handle(en.me, accepts[0])
					handed++
				}
			}
			c.s.RunFor(100 * time.Millisecond)
			if v, ok := en.chosenAt(inst); !ok || v.ID != a.ID || en.Stats().Announced != got.Announced+1 {
				t.Fatalf("instance %d decided %v (%v) after three acks at %v", inst, v.ID, ok, rb)
			}
			c.checkLeader(en)
		})
	}
}

// TestRecoveryRoundFollowsFastRound: the recovery round that skips phase 1 is
// the one right after the fast round, so no other coordinator's round can lie
// between the votes it is built on and its proposal. n = 5: leader L of fast
// round s, and four other members p1 to p4.
//
//   - rival: at instance X, L, p1 and p2 vote v in round s and p3 votes w. A
//     rival, p4, bids a classic k > s; p2, p3 and p4 promise it, and L's own
//     acceptor sees the prepare. Their promises report v once and w once, a
//     free choice, so the rival takes w (the lower ID) and gets it chosen at k.
//     L's hedge over its four votes must propose v, and does, at (s, Rec),
//     below k: p2, p3, p4 and L's own acceptor refuse it, p1 alone votes for
//     it, L stands down on the nacks, and v is never chosen. A fresh ballot of
//     L's — above k, which L has seen — would be accepted by all five and
//     choose v beside w.
//   - order: (s, Rec) sorts after s and before s+1, and is a classic round of
//     s's owner.
//   - nack: a nack naming the leader's own recovery round is no reason to bid
//     again, unlike one naming a ballot of its own it never issued.
//   - replay: an acceptor's (s, Rec) vote survives a restart, from the WAL and
//     from a compaction barrier, and a late accept of round s replaces it at
//     no point.
//   - establish: a later leader's phase 1 treats an (s, Rec) vote as a classic
//     top ballot: its value is the only one to propose, over two fast votes at
//     s for another value, which would force that value were s the top.
func TestRecoveryRoundFollowsFastRound(t *testing.T) {
	t.Run("rival", func(t *testing.T) {
		c, lead := blockedFastLeader(t)
		s, x := lead.leader.b, lead.firstUnchosen
		var others []*Engine
		for _, en := range c.engines {
			if en != lead {
				others = append(others, en)
			}
		}
		p1, p2, p3, rival := others[0], others[1], others[2], others[3]
		v, w := val(2), val(1)
		// p1 never hears of k, nor L of the rival's leadership.
		c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{rival.me}, Peers: []env.NodeID{p1.me, lead.me},
			Dir: env.LinkOutboundOnly, Sever: true})
		var proposed []*acceptMsg
		c.onSend = func(from, _ env.NodeID, m env.Message) {
			if m, ok := m.(*acceptMsg); ok && from == lead.me && m.Inst == x {
				proposed = append(proposed, m)
			}
		}
		for _, en := range []*Engine{lead, p1, p2} {
			en.Handle(lead.me, &acceptMsg{B: s, Inst: x, V: v})
		}
		p3.Handle(lead.me, &acceptMsg{B: s, Inst: x, V: w})
		lead.onAccepted(lead.me, lead.votedAt(x)) // L's link to itself is cut too

		rival.cfg.FastEnabled = false // a classic round: three votes decide it
		rival.startPrepare()
		k := rival.leader.b
		lead.Handle(rival.me, prepareMsg{B: k, From: x})
		c.s.RunFor(500 * time.Millisecond)
		if got, ok := rival.chosenAt(x); rival.leader == nil || rival.leader.b != k || !ok || got.ID != w.ID {
			t.Fatalf("the rival at %v decided %v (%v) at instance %d, want w", k, got.ID, ok, x)
		}
		if len(proposed) == 0 || proposed[0].V.ID != v.ID {
			t.Fatalf("L's hedge over {v, v, v, w} proposed %+v, want v", proposed)
		}
		for _, en := range c.engines {
			en.Handle(lead.me, proposed[0])
		}
		c.s.RunFor(500 * time.Millisecond)
		for id, en := range c.engines {
			if got, ok := en.chosenAt(x); ok && got.ID != w.ID {
				t.Fatalf("node %d decided %v at instance %d, where the rival's round %v chose w", id, got.ID, x, k)
			}
		}
		if a := p1.votedAt(x); proposed[0].B != s.recovery() || a.B != s.recovery() || a.V.ID != v.ID {
			t.Fatalf("L proposed at %v; p1 voted %v at %v", proposed[0].B, a.V.ID, a.B)
		}
		for _, en := range []*Engine{p2, p3, rival} {
			if a := en.votedAt(x); a.B != k || a.V.ID != w.ID {
				t.Fatalf("node %d replaced its vote for w at %v with %v at %v", en.me, k, a.V.ID, a.B)
			}
		}
		if lead.leader != nil {
			t.Fatalf("L still leads at %v after the nacks naming %v", lead.leader.b, k)
		}
	})

	t.Run("order", func(t *testing.T) {
		f := Ballot{Seq: 7, Fast: true}
		r := f.recovery()
		for _, tc := range []struct {
			a, b Ballot
			less bool
		}{
			{f, r, true},
			{r, f, false},
			{r, r, false},
			{r, Ballot{Seq: 8}, true},
			{Ballot{Seq: 8}, r, false},
			{Ballot{Seq: 6}.recovery(), f, true},
			{Ballot{Seq: 6}, r, true},
		} {
			if tc.a.Less(tc.b) != tc.less || tc.b.LessEq(tc.a) == tc.less {
				t.Errorf("%v < %v: Less %v, LessEq reversed %v; want %v", tc.a, tc.b, tc.a.Less(tc.b), tc.b.LessEq(tc.a), tc.less)
			}
		}
		if r.Owner(5) != f.Owner(5) || quorum(r, 5) != ClassicQuorum(5) || r.String() != "7r" {
			t.Errorf("%v: owner %d (fast round's %d), quorum %d", r, r.Owner(5), f.Owner(5), quorum(r, 5))
		}
	})

	t.Run("nack", func(t *testing.T) {
		c, en := blockedFastLeader(t)
		en.startPrepare() // a ballot above every recovery this leadership ran
		ls := en.leader
		for from := 0; from < ClassicQuorum(c.n); from++ {
			en.onPromise(env.NodeID(from), promiseMsg{B: ls.b, From: en.firstUnchosen})
		}
		if !ls.established || !ls.b.Fast || ls.recSeq >= ls.b.Seq {
			t.Fatalf("established %v at %v, recovery ballots up to %d", ls.established, ls.b, ls.recSeq)
		}
		en.onNack(1, nackMsg{Promised: ls.b.recovery()})
		if en.leader != ls {
			t.Fatalf("a nack naming %v ended the leadership of %v", ls.b.recovery(), ls.b)
		}
		en.onNack(1, nackMsg{Promised: Ballot{Seq: ls.b.Seq + int64(c.n)}})
		if en.leader == ls {
			t.Fatal("a nack naming a later ballot of the leader's own did not make it bid again")
		}
	})

	t.Run("replay", func(t *testing.T) {
		c, lead := blockedFastLeader(t)
		s, x := lead.leader.b, lead.firstUnchosen
		id := (int(lead.me) + 1) % c.n
		v, w := val(1), val(2)
		c.engines[id].Handle(lead.me, &acceptMsg{B: s, Inst: x, V: w})
		c.engines[id].Handle(lead.me, &acceptMsg{B: s.recovery(), Inst: x, V: v})
		holds := func(when string) {
			t.Helper()
			en := c.engines[id]
			en.Handle(lead.me, &acceptMsg{B: s, Inst: x, V: w}) // a late accept of round s
			if a := en.votedAt(x); a == nil || a.B != s.recovery() || a.V.ID != v.ID {
				t.Fatalf("%s: node %d votes %+v at instance %d, want v at %v", when, id, a, x, s.recovery())
			}
		}
		restart := func() {
			testTune = func(cfg *Config) { cfg.LeaderTimeout = 10 * time.Second } // as blockedFastLeader's: no bid
			defer func() { testTune = nil }()
			c.s.RunFor(200 * time.Millisecond)
			c.s.Crash(env.NodeID(id))
			c.s.Restart(env.NodeID(id))
			c.s.RunFor(time.Second)
		}
		holds("before a restart")
		restart()
		holds("replayed from the WAL")
		if en := c.engines[id]; en.firstUnchosen != x {
			t.Fatalf("node %d delivered up to %d after its restart, want %d", id, en.firstUnchosen, x)
		}
		c.engines[id].Compact(x - 1)
		restart()
		if c.s.Storage(env.NodeID(id)).FirstIndex() == 0 {
			t.Fatal("the compaction barrier truncated nothing")
		}
		holds("replayed from the compaction barrier")
	})

	t.Run("establish", func(t *testing.T) {
		c, en := blockedFastLeader(t)
		s, x := en.leader.b, en.firstUnchosen
		u, w := val(2), val(1)
		en.startPrepare()
		ls := en.leader
		// Member order puts the fast votes first, so a ballot order blind to
		// Rec would take s for the top and force w.
		for from, a := range []acceptedInfo{{B: s, Inst: x, V: w}, {B: s, Inst: x, V: w}, {B: s.recovery(), Inst: x, V: u}} {
			en.onPromise(env.NodeID(from), promiseMsg{B: ls.b, From: x, Accepted: []acceptedInfo{a}})
		}
		if r := ls.at(x); !ls.established || !r.proposing() || r.prop.b != ls.b || r.prop.v.ID != u.ID {
			t.Fatalf("established %v; instance %d proposes %v at %v, want u at %v", ls.established, x, r.prop.v.ID, r.prop.b, ls.b)
		}
		c.checkLeader(en)
	})
}
