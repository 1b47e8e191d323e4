package paxos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// carried returns the values a message holds.
func carried(msg env.Message) []*Value {
	switch m := msg.(type) {
	case *acceptMsg:
		return []*Value{m.V}
	case forwardMsg:
		return []*Value{m.V}
	case fastProposeMsg:
		return []*Value{m.V}
	case *acceptedMsg:
		return []*Value{m.V}
	case *chosenMsg:
		return []*Value{m.V}
	case recInfoMsg:
		if m.Voted {
			return []*Value{m.V}
		}
	case promiseMsg:
		var vs []*Value
		for _, a := range m.Accepted {
			vs = append(vs, a.V)
		}
		return vs
	case catchUpReplyMsg:
		var vs []*Value
		for _, e := range m.Entries {
			vs = append(vs, e.V)
		}
		return vs
	}
	return nil
}

// TestValueBuiltOnce: a Value is built once, by its proposer, and nothing
// copies it after. Four voters and a learner order values submitted at one
// voter and then at all four at once (in fast rounds those collide and are
// recovered); then a voter and the learner sleep through twenty decisions,
// restart, replay their votes and catch up. The first message that carries a
// value comes from the node its ID names, and every message that carries it —
// an accept, a forward, a fast proposal, a vote, an announcement, a promise's
// list, a recovery reply, a catch-up entry — holds that very pointer; so does
// every Deliver argument, and, at the end, every vote and every decision in
// every replica's log. The value still reads the ID, First, Size and command
// count it was first sent with.
func TestValueBuiltOnce(t *testing.T) {
	testModes(t, func(t *testing.T, fast bool) {
		const n, victim = 4, 3
		c := newHeldCluster(n, fast, 62)
		type built struct {
			v           *Value
			first, size int64
			cmds        int
		}
		values := map[ValueID]built{}
		kinds := map[string]int{} // carriers seen, by kind
		held := func(kind, where string, v *Value) {
			t.Helper()
			b, ok := values[v.ID]
			if !ok {
				t.Fatalf("%s: value %v was never sent", where, v.ID)
			}
			if v != b.v {
				t.Fatalf("%s: value %v is at %p; its proposer built it at %p", where, v.ID, v, b.v)
			}
			kinds[kind]++
		}
		c.tap = func(to int, from env.NodeID, msg env.Message) {
			kind := fmt.Sprintf("%T", msg)
			for _, v := range carried(msg) {
				if _, ok := values[v.ID]; !ok {
					if v.ID.Node != from {
						t.Fatalf("node %d sent value %v first; node %d proposed it", from, v.ID, v.ID.Node)
					}
					values[v.ID] = built{v, v.First, v.Size, len(v.Cmds)}
				}
				held(kind, fmt.Sprintf("node %d, %s from node %d", to, kind, from), v)
			}
		}
		c.deliver = func(id int, inst InstanceID, v *Value) {
			held("Deliver", fmt.Sprintf("node %d delivers instance %d", id, inst), v)
		}

		for i := 0; i < 20; i++ {
			c.submit(2*time.Second+time.Duration(i)*20*time.Millisecond, 1, fmt.Sprintf("solo-%d", i))
		}
		for i := 0; i < 20; i++ {
			for id := 0; id < n; id++ {
				c.submit(3*time.Second+time.Duration(i)*50*time.Millisecond, id, fmt.Sprintf("burst-%d-%d", i, id))
			}
		}
		c.s.RunFor(8 * time.Second)
		c.s.Crash(victim)
		c.s.Crash(env.NodeID(n)) // the learner
		for i := 0; i < 20; i++ {
			c.submit(time.Duration(i)*20*time.Millisecond, 1, fmt.Sprintf("missed-%d", i))
		}
		c.s.RunFor(2 * time.Second)
		c.s.Restart(victim)
		c.s.Restart(env.NodeID(n))
		c.s.RunFor(3 * time.Second)

		for id, h := range c.nodes {
			if h.en.firstUnchosen < 120 || h.en.firstUnchosen != h.en.maxKnown+1 {
				t.Fatalf("node %d delivered %d instances of %d known", id, h.en.firstUnchosen, h.en.maxKnown+1)
			}
			for inst, s := range h.en.log.From(0) {
				where := fmt.Sprintf("node %d instance %d", id, inst)
				if s.vote != nil {
					held("vote", where+": the vote", s.vote.V)
				}
				if s.chosen != nil {
					held("decision", where+": the decision", s.chosen)
				}
			}
		}
		for id, b := range values {
			if b.v.ID != id || b.v.First != b.first || b.v.Size != b.size || len(b.v.Cmds) != b.cmds {
				t.Fatalf("value %v was sent as (First %d, Size %d, %d commands) and reads %v (First %d, Size %d, %d commands)",
					id, b.first, b.size, b.cmds, b.v.ID, b.v.First, b.v.Size, len(b.v.Cmds))
			}
		}
		want := []string{"*paxos.acceptedMsg", "*paxos.chosenMsg", "paxos.catchUpReplyMsg", "Deliver", "vote", "decision"}
		if fast {
			want = append(want, "paxos.fastProposeMsg")
		} else {
			want = append(want, "*paxos.acceptMsg", "paxos.forwardMsg")
		}
		for _, k := range want {
			if kinds[k] == 0 {
				t.Errorf("no value was seen in a %s: the run does not exercise it (%v)", k, kinds)
			}
		}
		t.Logf("%d values; carriers %v", len(values), kinds)
	})
}

// TestNoRecordHoldsAValue: nothing the engine keeps, and no message or WAL
// record it builds, holds a Value by value — down to what their fields point
// to, through slices, arrays and maps — but the value slab that carves them.
func TestNoRecordHoldsAValue(t *testing.T) {
	valueType := reflect.TypeOf(Value{})
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty == valueType {
			t.Errorf("%s is a Value", path)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Pointer:
			if ty.Elem() != valueType {
				walk(path, ty.Elem())
			}
		case reflect.Slice, reflect.Array:
			walk(path, ty.Elem())
		case reflect.Map:
			walk(path, ty.Key())
			walk(path, ty.Elem())
		}
	}
	engine := reflect.TypeOf(Engine{})
	for i := 0; i < engine.NumField(); i++ {
		if f := engine.Field(i); f.Name != "values" {
			walk("Engine."+f.Name, f.Type)
		}
	}
	for _, rec := range []any{
		prepareMsg{}, promiseMsg{}, nackMsg{}, acceptMsg{}, acceptedMsg{}, chosenMsg{}, anyMsg{},
		fastProposeMsg{}, forwardMsg{}, recQueryMsg{}, recInfoMsg{}, pingMsg{}, catchUpReqMsg{},
		catchUpReplyMsg{}, promiseRec{}, instPromiseRec{}, compactRec{},
	} {
		walk(reflect.TypeOf(rec).Name(), reflect.TypeOf(rec))
	}
	for _, rec := range []any{slot{}, pendingValue{}, proposal{}, recState{}, acceptedInfo{}, chosenEntry{}} {
		if !seen[reflect.TypeOf(rec)] {
			t.Errorf("the walk did not reach %T", rec)
		}
	}
}

// TestForwardAllocatesNothing: a classic follower forwards a value to the
// leader as the value's pointer, which an interface holds without a box, so a
// forward allocates nothing. The follower's links are severed for the
// measurement, so the forwards go nowhere and nothing else runs.
func TestForwardAllocatesNothing(t *testing.T) {
	c := newCluster(t, 3, false, 64, sim.NetConfig{})
	c.submit(2*time.Second, 0, "warm")
	c.s.RunFor(3 * time.Second)
	c.requireDelivered(0, 1)
	lead := c.leaderIndex()
	if lead < 0 {
		t.Fatal("no leader established")
	}
	en := c.engines[(lead+1)%3]
	if en.IsLeader() || en.curBallot.Fast || en.owner(en.curBallot) != env.NodeID(lead) {
		t.Fatalf("node %d is not a classic follower of node %d", (lead+1)%3, lead)
	}
	c.silence(en)
	v := &Value{ID: ValueID{Node: en.me, Epoch: en.epoch, Seq: 1 << 40}, Cmds: []any{"x"}, Size: 192}
	forwards := 0
	c.onSend = func(_, to env.NodeID, m env.Message) {
		if f, ok := m.(forwardMsg); ok && f.V == v && to == env.NodeID(lead) {
			forwards++
		}
	}
	got := testing.AllocsPerRun(100, func() { en.propose(v) })
	if forwards != 101 {
		t.Fatalf("101 proposals sent %d forwards of the value to the leader", forwards)
	}
	if got > 0 {
		t.Fatalf("a forward allocates %v, want 0", got)
	}
}
