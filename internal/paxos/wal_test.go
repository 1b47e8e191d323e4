package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// TestWALReplayRestoresAcceptorState: a crashed acceptor must come back
// with its promises and votes intact (never contradicting its earlier
// replies). We crash a node right after it voted, restart it, and have a
// new leader rely on its reported state.
func TestWALReplayRestoresAcceptorState(t *testing.T) {
	c := newCluster(t, 3, false, 71, sim.NetConfig{})
	c.submit(2*time.Second, 0, "a")
	c.submit(2100*time.Millisecond, 1, "b")
	c.s.RunFor(5 * time.Second)

	// Crash node 2 (an acceptor), restart it: its WAL must reproduce
	// its votes.
	before := countVotes(c.engines[2])
	if before == 0 {
		t.Fatal("node 2 accepted nothing before crash")
	}
	c.s.Crash(2)
	c.s.Restart(2)
	c.s.RunFor(3 * time.Second)
	after := c.engines[2]
	if n := countVotes(after); n < before {
		t.Fatalf("WAL replay lost votes: %d < %d", n, before)
	}
	if after.promised.Seq < 0 {
		t.Fatal("WAL replay lost the promise")
	}
	c.checkConsistency()
}

// TestCompactRecBarrier: after Compact, a restart replays only the
// compaction barrier plus later records, and the acceptor state for open
// instances survives.
func TestCompactRecBarrier(t *testing.T) {
	c := newCluster(t, 3, false, 72, sim.NetConfig{})
	const total = 40
	for i := 0; i < total; i++ {
		c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, i%3,
			fmt.Sprintf("cmd-%d", i))
	}
	c.s.RunFor(8 * time.Second)

	en := c.engines[1]
	through := en.FirstUnchosen() - 5
	c.s.At(c.s.Now(), func() { en.Compact(through) })
	c.s.RunFor(2 * time.Second)

	// The WAL on disk must have been truncated at the barrier.
	if fi := c.s.Storage(1).FirstIndex(); fi == 0 {
		t.Fatal("storage was not truncated")
	}
	// Chosen entries below the floor are gone; later ones retained.
	if _, ok := en.chosenAt(through); ok {
		t.Fatal("compacted chosen entry retained")
	}
	if _, ok := en.chosenAt(through + 1); !ok {
		t.Fatal("retained chosen entry missing")
	}

	// Restart and make sure the node still works (replays from the
	// barrier) and the cluster keeps agreeing.
	c.s.Crash(1)
	c.s.Restart(1)
	c.submit(time.Second, 0, "post-compact")
	c.s.RunFor(10 * time.Second)
	c.checkConsistency()
	if len(c.delivered[0]) != total+1 {
		t.Fatalf("node 0 delivered %d, want %d", len(c.delivered[0]), total+1)
	}
}

// TestBackpressurePacksBatches: with MaxInFlight saturated, queued
// commands must be packed into multi-command batches rather than
// one-per-value (the group-commit growth that keeps per-message overhead
// bounded under load).
func TestBackpressurePacksBatches(t *testing.T) {
	batches := make(map[int]int) // batch size -> count
	c := &testCluster{
		t:         t,
		n:         3,
		engines:   make([]*Engine, 3),
		delivered: make([][]string, 3),
		instOf:    make([]map[InstanceID]string, 3),
	}
	c.s = sim.New(sim.Config{Seed: 73})
	for i := 0; i < 3; i++ {
		id := i
		c.s.AddNode(func() env.Node { return &engineNode{c: c, id: id} })
	}
	testFast = false
	c.s.StartAll()

	// Wrap node 0's deliver to record batch sizes.
	c.s.After(time.Second, func() {
		en := c.engines[0]
		orig := en.cfg.Deliver
		en.cfg.Deliver = func(inst InstanceID, v Value) {
			batches[len(v.Cmds)]++
			orig(inst, v)
		}
	})
	// Burst 300 commands at one node in a tight window.
	c.s.After(2*time.Second, func() {
		for i := 0; i < 300; i++ {
			c.engines[0].Submit(fmt.Sprintf("cmd-%d", i))
		}
	})
	c.s.RunFor(20 * time.Second)
	c.checkConsistency()
	if got := len(c.delivered[0]); got != 300 {
		t.Fatalf("delivered %d, want 300", got)
	}
	multi := 0
	for size, n := range batches {
		if size > 1 {
			multi += n
		}
	}
	if multi == 0 {
		t.Fatalf("no multi-command batches under burst load: %v", batches)
	}
}

// TestSubmitWhileUnbooted: commands submitted before the WAL replay
// finishes must not be lost (they batch and go out once booted).
func TestSubmitWhileUnbooted(t *testing.T) {
	c := newCluster(t, 3, false, 74, sim.NetConfig{})
	// Submit immediately — the engines boot asynchronously (disk read).
	c.s.At(c.s.Now(), func() {
		if en := c.engines[0]; en != nil {
			en.Submit("early")
		}
	})
	c.s.RunFor(8 * time.Second)
	for id := 0; id < 3; id++ {
		c.requireDelivered(id, 1)
	}
}

// TestFailedSyncIsNotAcknowledged: a promise or a vote whose WAL sync fails
// is acknowledged to no one. An acceptor is handed an accept and then a
// prepare, each above anything it promised, at ballots it owns (so its
// replies go to itself and no leader acts on them). With a working disk it
// sends one vote and one promise; with every sync failing it sends neither.
func TestFailedSyncIsNotAcknowledged(t *testing.T) {
	for _, fail := range []bool{false, true} {
		t.Run(fmt.Sprintf("fail=%v", fail), func(t *testing.T) {
			c := newCluster(t, 3, false, 73, sim.NetConfig{})
			c.s.RunFor(2 * time.Second)
			lead := c.leaderIndex()
			if lead < 0 {
				t.Fatal("no leader")
			}
			x := env.NodeID((lead + 1) % 3)
			en := c.engines[x]
			votes, promises := 0, 0
			c.onSend = func(from, _ env.NodeID, msg env.Message) {
				if from != x {
					return
				}
				switch msg.(type) {
				case *acceptedMsg:
					votes++
				case promiseMsg:
					promises++
				}
			}
			c.failSyncs = map[env.NodeID]bool{x: fail}

			c.s.At(c.s.Now(), func() {
				b := Ballot{Seq: nextOwnedBallot(en.maxBallotSeq, x, 3)}
				v := Value{ID: ValueID{Node: x, Epoch: 1, Seq: 1}, Cmds: []any{"a"}, Size: 64}
				en.Handle(x, &acceptMsg{B: b, Inst: en.FirstUnchosen(), V: v})
			})
			c.s.RunFor(500 * time.Millisecond)
			c.s.At(c.s.Now(), func() {
				b := Ballot{Seq: nextOwnedBallot(en.maxBallotSeq, x, 3)}
				en.Handle(x, prepareMsg{B: b, From: en.FirstUnchosen()})
			})
			c.s.RunFor(500 * time.Millisecond)

			want := 1
			if fail {
				want = 0
			}
			if votes != want || promises != want {
				t.Fatalf("syncs failing %v: the acceptor sent %d votes and %d promises, want %d of each", fail, votes, promises, want)
			}
		})
	}
}
