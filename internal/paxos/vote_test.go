package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// heldCluster is n voters and one learner (node n) on the simulator. Each
// node keeps what it was sent, with the sender, so a test can ask whether a
// pointer a log slot holds is the very object that crossed the network.
type heldCluster struct {
	s     *sim.Sim
	n     int
	nodes []*heldNode // the current incarnation of each
}

type heldNode struct {
	en  *Engine
	got []received
}

type received struct {
	from env.NodeID
	msg  env.Message
}

func (h *heldNode) Start(e env.Env) { h.en.Boot(e, 0, nil) }
func (h *heldNode) Receive(from env.NodeID, msg env.Message) {
	switch msg.(type) {
	case *acceptedMsg, *chosenMsg, catchUpReplyMsg:
		h.got = append(h.got, received{from, msg})
	}
	h.en.Handle(from, msg)
	noteFastLeader(h.en)
}

func newHeldCluster(n int, fast bool, seed uint64) *heldCluster {
	c := &heldCluster{s: sim.New(sim.Config{Seed: seed}), n: n, nodes: make([]*heldNode, n+1)}
	members := make([]env.NodeID, n)
	for i := range members {
		members[i] = env.NodeID(i)
	}
	for id := 0; id <= n; id++ {
		cfg := Config{
			FastEnabled: fast,
			BatchDelay:  2 * time.Millisecond,
			Members:     members,
			Deliver:     func(InstanceID, Value) {},
		}
		if id == n {
			cfg.Learner = true
		} else {
			cfg.Learners = []env.NodeID{env.NodeID(n)}
		}
		c.s.AddNode(func() env.Node {
			c.nodes[id] = &heldNode{en: New(cfg)}
			return c.nodes[id]
		})
	}
	c.s.StartAll()
	return c
}

func (c *heldCluster) submit(d time.Duration, id int, cmd string) {
	c.s.After(d, func() { c.nodes[id].en.Submit(cmd) })
}

// walVotes reads node id's WAL and returns the vote records' payloads.
func (c *heldCluster) walVotes(t *testing.T, id int) map[*acceptedMsg]bool {
	t.Helper()
	var votes map[*acceptedMsg]bool
	c.s.Storage(env.NodeID(id)).ReadRecords(func(recs []env.Record, err error) {
		votes = make(map[*acceptedMsg]bool)
		for _, r := range recs {
			if m, ok := r.Data.(*acceptedMsg); ok {
				votes[m] = true
			}
		}
	})
	c.s.RunFor(time.Second)
	if votes == nil {
		t.Fatalf("node %d: the WAL read did not complete", id)
	}
	return votes
}

// announced reports whether v is the value inside an announcement node id
// received or, when id coordinated the decision, one it built and sent: a
// coordinator learns its decision where it makes it, so its announcement
// reaches the others only.
func (c *heldCluster) announced(id int, inst InstanceID, v *Value) bool {
	for to, h := range c.nodes {
		for _, r := range h.got {
			m, ok := r.msg.(*chosenMsg)
			if ok && m.Inst == inst && &m.V == v && (to == id || r.from == env.NodeID(id)) {
				return true
			}
		}
	}
	return false
}

// inEntry reports whether v is the value inside a catch-up reply's entry h
// received.
func (h *heldNode) inEntry(v *Value) bool {
	for _, r := range h.got {
		if m, ok := r.msg.(catchUpReplyMsg); ok {
			for i := range m.Entries {
				if v == &m.Entries[i].V {
					return true
				}
			}
		}
	}
	return false
}

// TestVoteHeldOnce: a vote and a decision are each one object. The vote an
// acceptor's slot holds is the payload of its WAL record and the phase-2b
// message the coordinator was handed; once the instance is decided the slot's
// decision is the value inside that vote, or, where the node did not vote for
// what was decided — a learner, the loser of a fast-round collision — the
// value inside the announcement it received, or built if it coordinated the
// decision. (The coordinator knows a decision before its announcement lands,
// so a learner's catch-up request can bring it first; the learner then holds
// the reply's entry.) A replica that learns decisions
// by catch-up keeps the reply's entries, replays its votes as the WAL's own
// records, and lets go of the entries when the log drops the instances.
func TestVoteHeldOnce(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const n, victim = 4, 3
		c := newHeldCluster(n, fast, 61)
		// Spaced commands from one node, then every voter at the same
		// instant a few times over: in a fast round those collide.
		for i := 0; i < 20; i++ {
			c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, 1, fmt.Sprintf("solo-%d", i))
		}
		for i := 0; i < 20; i++ {
			for id := 0; id < n; id++ {
				c.submit(3*time.Second+time.Duration(i)*50*time.Millisecond, id, fmt.Sprintf("burst-%d-%d", i, id))
			}
		}
		c.s.RunFor(8 * time.Second)

		own, lost := 0, 0
		for id := 0; id < n; id++ {
			h := c.nodes[id]
			if h.en.firstUnchosen < 40 || h.en.firstUnchosen != h.en.maxKnown+1 {
				t.Fatalf("node %d delivered %d instances of %d known", id, h.en.firstUnchosen, h.en.maxKnown+1)
			}
			durable := c.walVotes(t, id)
			for inst, s := range h.en.log.From(0) {
				if s.vote == nil {
					continue
				}
				if !durable[s.vote] {
					t.Fatalf("node %d instance %d: the slot's vote is not the WAL record's payload", id, inst)
				}
				owner := c.nodes[h.en.owner(s.vote.B)]
				handed := false
				for _, r := range owner.got {
					handed = handed || (r.from == env.NodeID(id) && r.msg == env.Message(s.vote))
				}
				if !handed {
					t.Fatalf("node %d instance %d: the coordinator was not handed the slot's vote", id, inst)
				}
				switch {
				case s.chosen == nil:
					t.Fatalf("node %d instance %d: voted, delivered, and no decision held", id, inst)
				case s.chosen.ID == s.vote.V.ID:
					own++
					if s.chosen != &s.vote.V {
						t.Fatalf("node %d instance %d: the decision is a second copy of the value voted for", id, inst)
					}
				default:
					lost++
					if !c.announced(id, inst, s.chosen) {
						t.Fatalf("node %d instance %d: a collision's loser does not hold the announcement's value", id, inst)
					}
				}
			}
		}
		if own < 40*(n-1) || (fast && lost == 0) {
			t.Fatalf("%d decisions held in the node's own vote and %d collisions lost; the run does not exercise both", own, lost)
		}

		learner := c.nodes[n]
		if learner.en.firstUnchosen < 40 {
			t.Fatalf("the learner delivered %d instances", learner.en.firstUnchosen)
		}
		for inst, s := range learner.en.log.From(0) {
			if s.vote != nil || s.chosen == nil || !c.announced(n, inst, s.chosen) && !learner.inEntry(s.chosen) {
				t.Fatalf("learner instance %d: vote %v, and the decision is neither an announcement's value nor a catch-up entry's", inst, s.vote)
			}
		}

		// A voter sleeps through twenty decisions and learns them by catch-up.
		before := c.nodes[victim].en.firstUnchosen
		c.s.Crash(victim)
		for i := 0; i < 20; i++ {
			c.submit(time.Duration(i)*20*time.Millisecond, 1, fmt.Sprintf("missed-%d", i))
		}
		c.s.RunFor(2 * time.Second)
		c.s.Restart(victim)
		c.s.RunFor(3 * time.Second)
		h := c.nodes[victim]
		if h.en.firstUnchosen < before+20 {
			t.Fatalf("the restarted node delivered %d instances, want at least %d", h.en.firstUnchosen, before+20)
		}
		durable := c.walVotes(t, victim)
		fromEntry := 0
		for inst, s := range h.en.log.From(0) {
			if s.vote != nil && !durable[s.vote] {
				t.Fatalf("restarted node instance %d: the replayed vote is not the WAL record's payload", inst)
			}
			if s.chosen != nil && h.inEntry(s.chosen) {
				fromEntry++
			}
		}
		if fromEntry < 20 {
			t.Fatalf("%d decisions held in a catch-up reply's entry, want the 20 the node slept through", fromEntry)
		}
		h.en.Compact(h.en.firstUnchosen - 1)
		for inst, s := range h.en.log.From(0) {
			if s.chosen != nil && h.inEntry(s.chosen) {
				t.Fatalf("instance %d still holds a catch-up entry after Compact(%d)", inst, h.en.firstUnchosen-1)
			}
		}
		if h.en.log.Base() != h.en.firstUnchosen {
			t.Fatalf("Compact(%d) left the log based at %d", h.en.firstUnchosen-1, h.en.log.Base())
		}
	})
}
