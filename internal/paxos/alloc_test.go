package paxos

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// TestFastInstanceAllocBudget: counting a fast round and deciding it is free.
// At an established fast leader of five, once a warm-up has left a record on
// the leader's free list, the five votes of a failure-free instance and its
// decision allocate no record, no map, no timer and no message: the chosenMsg
// announceChosen builds when the fourth vote completes the fast quorum comes
// from the engine's announcement slab, one allocation per 1,023 decisions (a
// 16 KiB array of 16 B records); the leader learns the decision there, so the
// fifth vote finds the instance decided. (One allocation per instance while the announcement was built on
// its own; two while the leader learned it from its own announcement: the
// fifth vote, arriving first, announced it again.) The votes are the
// acceptors' own objects and the record's vote set points at them. (The
// leader's links are blocked for the measurement, so the announcements go
// nowhere and nothing else runs; the log's chunk for the decisions, and the
// leader's window's, is one allocation per 256 instances, and
// AllocsPerRun rounds the 101 instances' few down to 0.)
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
	if len(ls.free) == 0 {
		t.Fatal("the warm-up's fast instances left no record on the free list")
	}
	c.silence(en)
	inst := en.maxKnown + 1000
	vals := make([]Value, 102) // the proposers' values, one per round, built before the measurement
	for i := range vals {
		vals[i] = Value{ID: ValueID{Node: 1, Epoch: 1, Seq: int64(i) + 1}, Cmds: []any{"x"}, Size: 192}
	}
	var votes [n]acceptedMsg // what the acceptors would have sent; rewritten once the round has let go of them
	round := func() {
		v := &vals[0]
		vals = vals[1:]
		inst++
		for from := range votes {
			votes[from] = acceptedMsg{B: ls.b, Inst: inst, V: v}
			en.onAccepted(env.NodeID(from), &votes[from])
		}
	}
	round()
	announced := en.Stats().Announced
	got := testing.AllocsPerRun(100, round)
	t.Logf("%v allocs per fast instance", got)
	if got > 0 {
		t.Fatalf("a fast instance of %d votes and its decision: %v allocs, want 0", n, got)
	}
	if d := en.Stats().Announced - announced; d != 101 {
		t.Fatalf("101 fast instances announced %d times", d)
	}
	if held := heldRecords(ls); held != 0 || len(ls.free) == 0 {
		t.Fatalf("records not recycled: %d held, %d free", held, len(ls.free))
	}
}

// TestInstanceLogByteBudget: what it costs a replica to remember an instance
// — its promise, its vote and the decision. Three replicas decide 1,000
// instances through the protocol; then each is handed 10,000 more the way
// that writes the log and nothing else: promise and vote records through
// replay, the decision through onChosen. The slot points at the vote the WAL
// record holds and at the value the vote points at, so it is 40 B, a chunk of
// 256 is its own 10,240 B size class, and an instance costs 40 B and a
// directory entry's share: 42.6 B, and the budget is that + 10 %. The vote
// (32 B) and the value are built before the measurement, as the WAL record
// and the proposer built them. (While the slot held the vote and the
// decision by value it was 176 B and this test read 192 B; the three maps
// before that allocated 528 B per instance here, and 754–779 B with 3,000 to
// 60,000 instances in place of the 10,000: it depends on where the run
// catches them in their doubling.)
func TestInstanceLogByteBudget(t *testing.T) {
	const warm, n = 1000, 10_000
	if size := unsafe.Sizeof(slot{}); size > 40 {
		t.Fatalf("a log slot is %d B, want at most 40: a promise, two pointers and a flag", size)
	}
	c := newCluster(t, 3, false, 58, sim.NetConfig{})
	for i := 0; i < warm; i++ {
		c.submit(2*time.Second+time.Duration(i)*3*time.Millisecond, i%3, fmt.Sprintf("warm-%d", i))
	}
	c.s.RunFor(8 * time.Second)
	for id, en := range c.engines {
		c.requireDelivered(id, warm)
		if en.firstUnchosen < warm/2 || en.firstUnchosen != en.maxKnown+1 {
			t.Fatalf("node %d: warm-up decided %d instances and left %d undelivered", id, en.firstUnchosen, en.maxKnown+1-en.firstUnchosen)
		}
		first, b := en.firstUnchosen, en.curBallot
		recs := make([]env.Record, 0, 2*n)
		vals := make([]Value, n)
		for i := range vals {
			inst := first + InstanceID(i)
			vals[i] = Value{ID: ValueID{Node: 9, Epoch: 1, Seq: int64(i) + 1}, Size: 64}
			recs = append(recs,
				env.Record{Kind: "instpromise", Data: instPromiseRec{Inst: inst, B: b}, Size: 32},
				env.Record{Kind: "accept", Data: &acceptedMsg{B: b, Inst: inst, V: &vals[i]}, Size: 96})
		}
		var before, after runtime.MemStats
		procs := runtime.GOMAXPROCS(1) // the statistics count every goroutine's allocations
		runtime.ReadMemStats(&before)
		en.replay(recs)
		for i := range vals {
			en.onChosen(first+InstanceID(i), &vals[i])
		}
		runtime.ReadMemStats(&after)
		runtime.GOMAXPROCS(procs)
		if en.firstUnchosen != first+n || countVotes(en) < n {
			t.Fatalf("node %d: %d of %d instances delivered, %d votes held", id, en.firstUnchosen-first, n, countVotes(en))
		}
		per := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("node %d: %.1f B per instance", id, per)
		if per > 47 {
			t.Errorf("node %d: promise, vote and decision of an instance allocate %.4f B, budget 47", id, per)
		}
		if s := en.log.At(first); s.vote != recs[1].Data.(*acceptedMsg) || s.chosen != &vals[0] || s.vote.V != &vals[0] {
			t.Errorf("node %d: the slot does not point at the WAL record's vote and the value it was built with", id)
		}
	}
}
