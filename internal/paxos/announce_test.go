package paxos

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
)

// TestDecisionAnnouncedOnce: a coordinator learns a decision where it makes it
// and announces it once. Every other member and the learner receive exactly
// one chosenMsg per decided instance, all from the coordinator, and the
// coordinator receives none. One member's link to the coordinator is slowed,
// so its ack (classic, n=3: the third) or its vote (fast, n=5: the fifth)
// arrives after the quorum has decided; it must not announce the decision
// again. (While the coordinator learned its decision from its own
// announcement, it received that announcement, and every ack or vote that
// came in before it did announced the decision once more.)
func TestDecisionAnnouncedOnce(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		n := modeSize(fast)
		c := newHeldCluster(n, fast, 62)
		c.s.RunFor(2 * time.Second)
		lead := -1
		for id := 0; id < n; id++ {
			if c.nodes[id].en.IsLeader() && c.nodes[id].en.FastActive() == fast {
				lead = id
			}
		}
		if lead < 0 {
			t.Fatal("no established leader in the wanted mode")
		}
		late := (lead + n - 1) % n
		c.s.Links().Open(netfault.Fault{Nodes: []env.NodeID{env.NodeID(late)}, Peers: []env.NodeID{env.NodeID(lead)},
			Dir: env.LinkOutboundOnly, Delay: 20})
		const total = 40
		for i := 0; i < total; i++ {
			c.submit(time.Duration(i)*20*time.Millisecond, (lead+1)%n, fmt.Sprintf("cmd-%d", i))
		}
		c.s.RunFor(4 * time.Second)

		coord := c.nodes[lead].en
		decided := coord.firstUnchosen
		if decided < total || decided != coord.maxKnown+1 {
			t.Fatalf("the coordinator delivered %d instances of %d known", decided, coord.maxKnown+1)
		}
		for id := 0; id <= n; id++ {
			got := make(map[InstanceID]int)
			for _, r := range c.nodes[id].got {
				if m, ok := r.msg.(*chosenMsg); ok {
					if r.from != env.NodeID(lead) {
						t.Fatalf("node %d: instance %d announced by node %d, not the coordinator %d", id, m.Inst, r.from, lead)
					}
					got[m.Inst]++
				}
			}
			want := 1
			if id == lead {
				want = 0
			}
			for inst := InstanceID(0); inst < decided; inst++ {
				if got[inst] != want {
					t.Fatalf("node %d received %d announcements of instance %d, want %d", id, got[inst], inst, want)
				}
			}
			if len(got) > int(decided) {
				t.Fatalf("node %d received announcements of %d instances, %d were decided", id, len(got), decided)
			}
		}
		if a := coord.Stats().Announced; a != int64(decided) {
			t.Fatalf("the coordinator counts %d announcements for %d decisions", a, decided)
		}
	})
}
