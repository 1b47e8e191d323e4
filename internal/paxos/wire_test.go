package paxos

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// TestVoteWireSizes: a plain classic 2b is modelled as its ballot, instance
// and value ID; a fast-round or recovery-round 2b carries the whole value.
func TestVoteWireSizes(t *testing.T) {
	v := &Value{ID: ValueID{Node: 1, Seq: 2}, Size: 10_000}
	cases := []struct {
		b    Ballot
		want int64
	}{
		{Ballot{Seq: 3}, 72},
		{Ballot{Seq: 3, Fast: true}, 48 + v.Size},
		{Ballot{Seq: 3, Rec: true}, 48 + v.Size},
	}
	for _, tc := range cases {
		if got := (acceptedMsg{B: tc.b, Inst: 7, V: v}).WireSize(); got != tc.want {
			t.Errorf("2b at ballot %v: wire size %d, want %d", tc.b, got, tc.want)
		}
	}
}

// TestClassicVoteValueUnread: the coordinator never reads the value of a
// plain classic 2b. Every such 2b in flight is replaced by one whose value is
// the ID alone (no commands, size 0), and the run must decide and deliver the
// same values at the same instances as a run that sends the votes whole —
// three members, and five with a leader change in the middle.
func TestClassicVoteValueUnread(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		crash bool
	}{
		{"n3", 3, false},
		{"n5_leader_change", 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole, _ := deliveriesWithVotes(t, tc.n, tc.crash, false)
			thin, stripped := deliveriesWithVotes(t, tc.n, tc.crash, true)
			if stripped == 0 {
				t.Fatal("no classic 2b was stripped: the run tests nothing")
			}
			for id := range whole {
				if tc.crash && id == 0 {
					continue // the crashed leader delivers only its first incarnation
				}
				if len(whole[id]) < 100 {
					t.Fatalf("node %d delivered %d values; the run is too short to tell", id, len(whole[id]))
				}
				if !slices.Equal(whole[id], thin[id]) {
					t.Fatalf("node %d: with thin classic 2bs it delivered\n%v\nwith whole 2bs\n%v", id, thin[id], whole[id])
				}
			}
		})
	}
}

// deliveriesWithVotes runs n classic members under a steady command stream,
// crashing node 0 (the first leader) midway when crash is set, and returns
// each node's deliveries as "instance:value ID:commands". With strip set,
// every plain classic 2b is sent as its ballot, instance and value ID only;
// it also returns how many were.
func deliveriesWithVotes(t *testing.T, n int, crash, strip bool) ([][]string, int) {
	t.Helper()
	c := newCluster(t, n, false, 5, sim.NetConfig{})
	got := make([][]string, n)
	c.onDeliver = func(node int, inst InstanceID, v *Value) {
		got[node] = append(got[node], fmt.Sprintf("%d:%v:%v", inst, v.ID, v.Cmds))
	}
	stripped, owners := 0, map[env.NodeID]bool{}
	if strip {
		c.rewrite = func(msg env.Message) env.Message {
			m, ok := msg.(*acceptedMsg)
			if !ok || m.B.Fast || m.B.Rec {
				return msg
			}
			stripped++
			owners[m.B.Owner(n)] = true
			return &acceptedMsg{B: m.B, Inst: m.Inst, V: &Value{ID: m.V.ID}}
		}
	}
	const total = 300
	for i := 0; i < total; i++ {
		c.submit(2*time.Second+time.Duration(i)*10*time.Millisecond, 1+i%(n-1), fmt.Sprintf("cmd-%d", i))
	}
	if crash {
		c.s.After(3500*time.Millisecond, func() { c.s.Crash(0) })
	}
	c.s.RunFor(12 * time.Second)
	for id := 1; id < n; id++ {
		c.requireDelivered(id, total)
	}
	c.checkConsistency()
	if strip && crash && len(owners) < 2 {
		t.Fatalf("stripped 2bs went to the coordinators %v only: no leader change was exercised", owners)
	}
	return got, stripped
}
