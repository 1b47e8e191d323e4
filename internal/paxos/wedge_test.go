package paxos

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// leaderIndex returns the node that leads an established ballot, -1 if none.
func (c *testCluster) leaderIndex() int {
	for id, en := range c.engines {
		if en != nil && c.s.Alive(env.NodeID(id)) && en.IsLeader() {
			return id
		}
	}
	return -1
}

// TestFreshLeaderKeepsRecoveredInstance: a fresh leader's gap repair recovers
// instance 0 before any client value has come in. The first client value,
// submitted at the leader while that recovery stands, must take instance 1
// and leave the recovery at 0 alone. Two moments:
//
//   - querying: the recovery is still collecting its quorum. The value used to
//     take instance 0 and be displaced there by the recovery's no-op; its id
//     stayed behind as "already being proposed", so the leader refused every
//     retry of it and it never committed.
//   - proposing: the recovery's phase 2 stands at 0. The value used to
//     overwrite it at the leader's ballot, which the acceptors' per-instance
//     promise to the recovery ballot nacks; the leader ignored the nacks (it
//     owns that ballot), gap repair skipped the busy instance, and the group
//     never delivered anything.
func TestFreshLeaderKeepsRecoveredInstance(t *testing.T) {
	for _, phase := range []string{"querying", "proposing"} {
		t.Run(phase, func(t *testing.T) {
			testTune = func(cfg *Config) { cfg.MaxBatchCmds = 1 } // Submit proposes at once
			defer func() { testTune = nil }()
			c := newCluster(t, 3, false, 24, sim.NetConfig{})
			submitted := false
			var poll func()
			poll = func() {
				if lead := c.leaderIndex(); lead >= 0 {
					r := c.engines[lead].leader.at(0)
					if r.recovering() && (phase == "querying") != r.proposing() {
						if phase == "proposing" && r.prop.b != r.rec.b {
							t.Fatalf("instance 0 proposed at %v while recovering at %v", r.prop.b, r.rec.b)
						}
						c.engines[lead].Submit("first")
						submitted = true
						return
					}
				}
				c.s.After(200*time.Microsecond, poll)
			}
			c.s.After(0, poll)
			c.s.RunFor(6 * time.Second)
			if !submitted {
				t.Fatalf("gap repair never reached the %s phase at instance 0", phase)
			}
			for id := range c.engines {
				c.requireDelivered(id, 1)
			}
			c.checkConsistency()
			lead := c.engines[c.leaderIndex()]
			if lead.Stats().RecGap == 0 {
				t.Fatal("no gap recovery was counted")
			}
			if v, ok := lead.chosenAt(0); !ok || !v.NoOp() {
				t.Fatalf("instance 0 decided %v (%v), want the recovery's no-op", v.ID, ok)
			}
		})
	}
}

// TestNackAtForgottenOwnBallot: the acceptors hold a per-instance promise at
// a recovery ballot the leader owns but its current leadership never issued —
// an earlier incarnation's, as when a leader restarts and reclaims its place
// while the promises its last recovery collected still stand. Its accepts at
// that instance are nacked naming that ballot. The leader must bid again above
// it. It used to ignore every nack naming a ballot it owns and retry at its
// own ballot for ever, so nothing was delivered from that instance on.
func TestNackAtForgottenOwnBallot(t *testing.T) {
	c := newCluster(t, 3, false, 23, sim.NetConfig{})
	c.submit(2*time.Second, 1, "before")
	c.s.RunFor(3 * time.Second)
	id := c.leaderIndex()
	if id < 0 {
		t.Fatal("no leader established")
	}
	lead := c.engines[id]
	inst := lead.leader.nextInstance
	forgotten := Ballot{Seq: nextOwnedBallot(lead.maxBallotSeq+100, lead.me, c.n)}
	for other, en := range c.engines {
		if other != id {
			en.Handle(lead.me, recQueryMsg{B: forgotten, Inst: inst})
		}
	}
	c.submit(10*time.Millisecond, 1, "after")
	c.s.RunFor(5 * time.Second)
	for other := range c.engines {
		c.requireDelivered(other, 2)
	}
	c.checkConsistency()
	if c.leaderIndex() != id || !forgotten.Less(lead.CurrentBallot()) {
		t.Fatalf("node %d leads at %v, want node %d above %v", c.leaderIndex(), lead.CurrentBallot(), id, forgotten)
	}
}
