package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"robuststore/internal/env"
)

// refEvent and refQueue are the event queue the simulator used before the
// value-typed heap: container/heap over pointers, ordered by (at, seq).
// They live on only here, as the reference the new queue is compared with.
type refEvent struct {
	at, seq int64

	// What the schedule-level test needs to predict the loop's decision.
	id      int
	node    int // -1: a global callback
	inc     int
	stopped bool
	popped  bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TestEventQueueMatchesReferenceHeap: a seeded random mix of pushes and pops
// — times drawn from a narrow window, so ties on at are the rule — must pop
// the identical (at, seq) sequence from both heaps.
func TestEventQueueMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refQueue
		var seq, now int64
		pop := func() {
			got, want := q.pop(), heap.Pop(&ref).(*refEvent)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("seed %d: popped (%d, %d), reference (%d, %d)", seed, got.at, got.seq, want.at, want.seq)
			}
			now = got.at // like the loop: nothing is scheduled in the past
		}
		for op := 0; op < 20000; op++ {
			if len(q) != ref.Len() {
				t.Fatalf("seed %d: %d queued, reference %d", seed, len(q), ref.Len())
			}
			// The mix alternates between filling and draining, so the heap
			// is exercised at many sizes, empty included.
			popOdds := 4
			if (op/2000)%2 == 1 {
				popOdds = 6
			}
			if len(q) > 0 && rng.Intn(10) < popOdds {
				pop()
				continue
			}
			seq++
			at := now + int64(rng.Intn(8))
			q.push(event{at: at, seq: seq})
			heap.Push(&ref, &refEvent{at: at, seq: seq})
		}
		for len(q) > 0 {
			pop()
		}
		if ref.Len() != 0 {
			t.Fatalf("seed %d: reference still holds %d", seed, ref.Len())
		}
	}
}

// TestScheduleMatchesReferenceModel drives a simulation with a seeded random
// mix of global callbacks, node timers, posts, timer stops and resets,
// crashes and restarts, and predicts from the reference heap what must run,
// in which order, at what virtual time: a stopped timer never fires, Stop
// reports whether it prevented the callback, a Reset schedules one more run
// under the timer's own incarnation and supersedes a pending one, a crash
// orphans the node's pending callbacks, and everything else runs in (at, seq)
// order.
func TestScheduleMatchesReferenceModel(t *testing.T) {
	type fire struct {
		id int
		at int64
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(Config{Seed: uint64(seed)})
		envs := make([]env.Env, 3) // the live incarnation's Env, nil while down
		incs := make([]int, 3)
		for i := range envs {
			s.AddNode(func() env.Node { return &envCapture{at: &envs[i]} })
		}
		s.StartAll()
		s.RunFor(time.Millisecond)

		var ref refQueue
		var got, want []fire
		var seq int64
		nextID := 0
		type handle struct {
			tm env.Timer
			ev *refEvent // the latest arming
		}
		var timers []*handle
		schedule := func(node int, d time.Duration) *refEvent {
			seq++
			nextID++
			e := &refEvent{at: s.Now().Add(d).UnixNano(), seq: seq, id: nextID, node: node}
			if node >= 0 {
				e.inc = incs[node]
			}
			heap.Push(&ref, e)
			return e
		}
		record := func(id int) func() {
			return func() { got = append(got, fire{id, s.Now().UnixNano()}) }
		}
		// run advances the simulation and the model together.
		run := func(until time.Time) {
			s.RunUntil(until)
			for ref.Len() > 0 && ref[0].at <= until.UnixNano() {
				e := heap.Pop(&ref).(*refEvent)
				if e.stopped {
					continue
				}
				e.popped = true
				if e.node < 0 || (envs[e.node] != nil && incs[e.node] == e.inc) {
					want = append(want, fire{e.id, e.at})
				}
			}
		}
		for round := 0; round < 3000; round++ {
			node := rng.Intn(3)
			d := time.Duration(rng.Intn(5)) * 100 * time.Microsecond
			switch op := rng.Intn(100); {
			case op < 25:
				e := schedule(-1, d)
				s.After(d, record(e.id))
			case op < 55 && envs[node] != nil:
				e := schedule(node, d)
				timers = append(timers, &handle{envs[node].After(d, record(e.id)), e})
			case op < 70 && envs[node] != nil:
				e := schedule(node, 0)
				envs[node].Post(record(e.id))
			case op < 78 && len(timers) > 0:
				h := timers[rng.Intn(len(timers))]
				prevented := !h.ev.stopped && !h.ev.popped
				if h.tm.Stop() != prevented {
					t.Fatalf("seed %d: Stop reported %v on timer %d (stopped=%v, popped=%v)",
						seed, !prevented, h.ev.id, h.ev.stopped, h.ev.popped)
				}
				h.ev.stopped = true
			case op < 85 && len(timers) > 0:
				// Pending, fired, stopped or orphaned by a crash: the timer
				// runs its callback once more, as the incarnation that made it.
				h := timers[rng.Intn(len(timers))]
				h.tm.Reset(d)
				prev := h.ev
				prev.stopped = true
				h.ev = schedule(prev.node, d)
				h.ev.id, h.ev.inc = prev.id, prev.inc
			case op < 88 && envs[node] != nil:
				s.Crash(env.NodeID(node))
				envs[node] = nil
				incs[node]++
			case op < 92 && envs[node] == nil:
				s.Restart(env.NodeID(node))
				run(s.Now()) // the Start event hands over the new Env
				if envs[node] == nil {
					t.Fatalf("seed %d: node %d did not start", seed, node)
				}
			default:
				run(s.Now().Add(time.Duration(rng.Intn(4)) * 100 * time.Microsecond))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d callbacks ran, the reference model runs %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: callback %d was %+v, the reference model has %+v", seed, i, got[i], want[i])
			}
		}
		if len(got) < 1000 {
			t.Fatalf("seed %d: only %d callbacks ran; the mix is not exercising the loop", seed, len(got))
		}
	}
}

// envCapture is a node that publishes its incarnation's Env.
type envCapture struct{ at *env.Env }

func (n *envCapture) Start(e env.Env)                 { *n.at = e }
func (n *envCapture) Receive(env.NodeID, env.Message) {}

// countNode counts deliveries and does nothing else.
type countNode struct {
	e env.Env
	n int
}

func (n *countNode) Start(e env.Env)                 { n.e = e }
func (n *countNode) Receive(env.NodeID, env.Message) { n.n++ }

func countPair(tb testing.TB) (*Sim, *countNode) {
	tb.Helper()
	s := New(Config{Seed: 1})
	a := &countNode{}
	s.AddNode(func() env.Node { return a })
	s.AddNode(func() env.Node { return &countNode{} })
	s.StartAll()
	s.RunFor(time.Millisecond)
	return s, a
}

// TestEventAllocBudget: scheduling is allocation-free. Sending a message
// that is already boxed and delivering it costs nothing; a node timer costs
// its simTimer (which Stop and Reset need) and nothing else, and re-arming one
// that has fired or was stopped costs nothing; a post costs nothing, and
// neither does a job on a Resource, with or without a completion.
func TestEventAllocBudget(t *testing.T) {
	s, a := countPair(t)
	var msg env.Message = "m" // boxed once, outside the measurement
	fired := 0
	fn := func() { fired++ }
	// Warm up: the queue grows to its working size once.
	for i := 0; i < 64; i++ {
		a.e.Send(1, msg)
		a.e.After(time.Millisecond, fn)
		a.e.Post(fn)
	}
	s.RunFor(10 * time.Millisecond)

	if n := testing.AllocsPerRun(100, func() {
		a.e.Send(1, msg)
		s.RunFor(time.Millisecond)
	}); n != 0 {
		t.Errorf("send→deliver of a boxed message: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.e.Post(fn)
		s.RunFor(0)
	}); n != 0 {
		t.Errorf("post→run: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		a.e.After(time.Millisecond, fn)
		s.RunFor(time.Millisecond)
	}); n > 1 {
		t.Errorf("After→fire: %v allocs, want at most 1 (the timer)", n)
	}
	tm := a.e.After(time.Millisecond, fn)
	s.RunFor(time.Millisecond)
	before := fired
	if n := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Millisecond) // fired
		s.RunFor(time.Millisecond)
		tm.Reset(time.Millisecond)
		tm.Stop()
		tm.Reset(time.Millisecond) // stopped
		s.RunFor(time.Millisecond)
	}); n != 0 {
		t.Errorf("Reset of a fired or stopped timer→fire: %v allocs, want 0", n)
	}
	if fired-before != 2*101 {
		t.Errorf("the re-armed timer ran %d times in 101 rounds of two arm-and-fire, want 202", fired-before)
	}
	cpu := NewResource(s, 1)
	before = fired
	if n := testing.AllocsPerRun(100, func() {
		cpu.Acquire(100*time.Microsecond, fn)
		cpu.Acquire(100*time.Microsecond, nil)
		s.RunFor(time.Millisecond)
	}); n != 0 {
		t.Errorf("Acquire→complete: %v allocs, want 0", n)
	}
	if fired == before || cpu.QueueLen() != 0 {
		t.Errorf("resource jobs did not complete: %d callbacks, %d queued", fired-before, cpu.QueueLen())
	}
	if fired == 0 {
		t.Fatal("no callback ran")
	}
}

// BenchmarkSimEventLoop is the per-layer microbenchmark for the simulator:
// one op is one event scheduled and run, against a standing queue of a
// thousand pending timers, in the proportions of the ordering workload
// (mostly deliveries, some posts and timers). Run with -benchmem.
func BenchmarkSimEventLoop(b *testing.B) {
	s, a := countPair(b)
	var msg env.Message = "m"
	fn := func() {}
	for i := 0; i < 1000; i++ {
		a.e.After(time.Hour+time.Duration(i)*time.Second, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 8 {
		for j := 0; j < 5; j++ {
			a.e.Send(1, msg)
		}
		a.e.Post(fn)
		a.e.Post(fn)
		a.e.After(50*time.Microsecond, fn)
		s.RunFor(time.Millisecond)
	}
}

// TestWALByteBudget: a durable record costs the node's log its own 40 bytes,
// its share of the chunk's size class (10,880 B for 256 records and the
// allocation header) and of a directory entry — no regrowth copy, whatever
// the log's length — and a group commit costs its completion closure: 43.6 B
// per record over 200 groups of 100, after a warm-up that brings the pending
// buffers and the event queue to size. (While the log was a slice grown by
// append this test read 201 B per record.)
func TestWALByteBudget(t *testing.T) {
	s, a := countPair(t)
	st := a.e.Storage()
	group := make([]env.Record, 100)
	for i := range group {
		group[i] = env.Record{Kind: "accept", Data: "vote", Size: 96}
	}
	durable := 0
	done := func(error) { durable += len(group) }
	appendGroups := func(n int) {
		for i := 0; i < n; i++ {
			st.AppendBatch(group, done)
			s.RunFor(20 * time.Millisecond)
		}
	}
	appendGroups(10)
	const groups = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	appendGroups(groups)
	runtime.ReadMemStats(&after)
	if durable != (10+groups)*len(group) {
		t.Fatalf("%d records durable, want %d", durable, (10+groups)*len(group))
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(groups*len(group))
	t.Logf("%.1f B per appended record", per)
	if per > 45 {
		t.Errorf("an appended record allocates %.1f B, budget 45", per)
	}
}
