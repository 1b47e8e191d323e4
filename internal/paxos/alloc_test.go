package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// TestFastInstanceAllocBudget: counting a fast round is free. At an
// established fast leader of five, once a warm-up has left a vote set on the
// leader's free list, the five votes of a failure-free instance and its
// decision allocate no vote set, no map and no timer: the only two
// allocations are the chosenMsg boxed by announceChosen when the fourth vote
// completes the fast quorum and again at the fifth, which arrives before the
// decision has come back round. (The leader's links are blocked for the
// measurement, so the announcements go nowhere and nothing else runs.)
func TestFastInstanceAllocBudget(t *testing.T) {
	const n = 5
	c := newCluster(t, n, true, 57, sim.NetConfig{})
	for i := 0; i < 8; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, i%n, fmt.Sprintf("warm-%d", i))
	}
	c.s.RunFor(4 * time.Second)
	c.requireDelivered(0, 8)
	var en *Engine
	for _, e := range c.engines {
		if e.IsLeader() && e.FastActive() {
			en = e
		}
	}
	if en == nil {
		t.Fatal("no established fast leader")
	}
	ls := en.leader
	if len(ls.freeVotes) == 0 {
		t.Fatal("the warm-up's fast instances left no vote set on the free list")
	}
	for to := 0; to < n; to++ {
		c.s.SetLink(en.me, env.NodeID(to), true)
	}
	inst := en.maxKnown + 1000
	v := Value{ID: ValueID{Node: 1, Epoch: 1}, Cmds: []any{"x"}, Size: 192}
	round := func() {
		inst++
		v.ID.Seq++
		for from := 0; from < n; from++ {
			en.onFastVote(env.NodeID(from), acceptedMsg{B: ls.b, Inst: inst, V: v})
		}
		ls.onDecided(inst)
	}
	round()
	got := testing.AllocsPerRun(100, round)
	t.Logf("%v allocs per fast instance", got)
	if got > 2 {
		t.Fatalf("a fast instance of %d votes and its decision: %v allocs, want 2 (the announcements)", n, got)
	}
	if len(ls.fastVotes) != 0 || len(ls.freeVotes) == 0 {
		t.Fatalf("vote sets not recycled: %d held, %d free", len(ls.fastVotes), len(ls.freeVotes))
	}
}
