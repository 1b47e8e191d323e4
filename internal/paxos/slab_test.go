package paxos

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"robuststore/internal/env"
	"robuststore/internal/sim"
	"robuststore/internal/slab"
)

// TestSlabRecordsAreNeverReused: a slab hands a record out once, so a record
// that is sent, logged or held keeps what it was built with however many
// records its engine builds after it. Three classic members order 8,192
// one-command values submitted at the two that do not lead: every member votes
// at 8,192 instances, the leader sends as many accepts and announcements, and
// each other member builds and forwards 4,096 values whose command slices it
// carves — four arrays of command slots (16 B each, the most records an array
// holds) and more of every other kind at each engine. The first vote,
// announcement and accept the cluster sends, the first value forwarded and
// the first command slice read at the end what they read when they were sent;
// and every record sent, every value and every command slice is seen with one
// content only: no two share an address.
func TestSlabRecordsAreNeverReused(t *testing.T) {
	const n, each = 3, 4 * slab.Bytes / int(unsafe.Sizeof(any(nil)))
	c := newCluster(t, n, false, 61, sim.NetConfig{})
	c.s.RunFor(2 * time.Second)
	lead := -1
	for id, en := range c.engines {
		if en.IsLeader() {
			lead = id
		}
	}
	if lead < 0 {
		t.Fatal("no leader after 2 s")
	}

	// content prints what a record reads, and false for a message that is not
	// built from a slab.
	content := func(m env.Message) (string, bool) {
		switch m := m.(type) {
		case *acceptedMsg:
			return fmt.Sprintf("vote %v %d %v %v", m.B, m.Inst, m.V.ID, m.V.Cmds), true
		case *chosenMsg:
			return fmt.Sprintf("announcement %d %v %v", m.Inst, m.V.ID, m.V.Cmds), true
		case *acceptMsg:
			return fmt.Sprintf("accept %v %d %v %v", m.B, m.Inst, m.V.ID, m.V.Cmds), true
		case forwardMsg:
			return fmt.Sprintf("forward %v %v", m.V.ID, m.V.Cmds), true
		case *pingMsg:
			return fmt.Sprintf("ping %+v", *m), true
		}
		return "", false
	}
	type held struct {
		m    env.Message
		want string
	}
	seen := map[env.Message]string{} // every record sent, by address
	values := map[*Value]string{}    // every value sent, by address
	first := map[string]held{}       // the first record of each kind
	cmdsAt := map[*any]ValueID{}     // every small command slice, by its first entry
	var firstCmds []any
	var firstCmdsWant string
	c.onSend = func(from, _ env.NodeID, m env.Message) {
		s, ok := content(m)
		if !ok {
			return
		}
		if _, fwd := m.(forwardMsg); !fwd { // a forward is its value's pointer, not a record
			if prev, dup := seen[m]; dup && prev != s {
				t.Fatalf("node %d sent a record at %p twice: %s, then %s", from, m, prev, s)
			}
			seen[m] = s
		}
		if kind := fmt.Sprintf("%T", m); first[kind].m == nil {
			first[kind] = held{m, s}
		}
		var v *Value
		switch m := m.(type) {
		case *acceptMsg:
			v = m.V
		case forwardMsg:
			v = m.V
		default:
			return
		}
		vs := fmt.Sprint(v.ID, v.Cmds)
		if prev, dup := values[v]; dup && prev != vs {
			t.Fatalf("node %d sent a value at %p twice: %s, then %s", from, v, prev, vs)
		}
		values[v] = vs
		if len(v.Cmds) == 0 || len(v.Cmds) > slabCmds {
			return
		}
		if id, dup := cmdsAt[&v.Cmds[0]]; dup && id != v.ID {
			t.Fatalf("values %v and %v share a command slice at %p", id, v.ID, &v.Cmds[0])
		}
		cmdsAt[&v.Cmds[0]] = v.ID
		if firstCmds == nil {
			firstCmds, firstCmdsWant = v.Cmds, fmt.Sprint(v.Cmds)
		}
	}

	for i := range 2 * each {
		c.submit(time.Duration(i)*3*time.Millisecond, (lead+1+i%2)%n, fmt.Sprintf("v%d", i))
	}
	c.s.RunFor(time.Duration(2*each)*3*time.Millisecond + 2*time.Second)
	for id := range c.engines {
		c.requireDelivered(id, 2*each)
	}
	c.checkConsistency()
	if got := c.engines[lead].leader.nextInstance; got < InstanceID(2*each) {
		t.Fatalf("the leader reached instance %d, want at least %d: the values were not one per instance", got, 2*each)
	}

	for _, kind := range []string{"*paxos.acceptedMsg", "*paxos.chosenMsg", "*paxos.acceptMsg", "paxos.forwardMsg", "*paxos.pingMsg"} {
		h := first[kind]
		if h.m == nil {
			t.Errorf("no %s was sent", kind)
			continue
		}
		if got, _ := content(h.m); got != h.want {
			t.Errorf("the first %s was built as %s and reads %s", kind, h.want, got)
		}
	}
	if got := fmt.Sprint(firstCmds); firstCmds == nil || got != firstCmdsWant {
		t.Errorf("the first command slice was built as %s and reads %s", firstCmdsWant, got)
	}
}
