package sim

import (
	"container/heap"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"robuststore/internal/env"
)

// refEvent and refQueue are the loop's one event queue as it was before
// timers and resource jobs left it: container/heap over pointers, ordered by
// (at, seq), holding an entry for every arming of a timer — live or not — and
// for every job admitted to a resource. They live on only here, as the
// reference the two heaps of today are compared with (refSched, below).
type refEvent struct {
	at, seq int64

	// What refSched needs to decide what popping the entry does.
	kind  refKind
	id    int          // what the callback records; 0: none (a job without done, a node's Start)
	node  int          // kindNode, kindDeliver
	inc   int          // kindNode: the incarnation that must still be up
	timer *refTimer    // kindTimer
	res   *refResource // kindResource
	gen   int          // the timer's or the resource's generation when the entry was made
}

type refKind uint8

const (
	kindGlobal refKind = iota
	kindNode
	kindTimer
	kindDeliver
	kindResource
)

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
			q.push(event{key: key{at: at, seq: seq}})
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

// refSched is the scheduler this package had before this test was extended,
// reduced to its decisions: one lazy-deletion heap. A timer's every arming is
// an entry stamped with a generation, discarded when it surfaces stale; every
// resource job is an entry from the moment it is admitted; a crash orphans by
// incarnation. The network is the simulator's with no jitter: a 512-byte
// message holds the sender's NIC for 4,096 ns (loopback skips it) and arrives
// 120 µs after it leaves.
type refSched struct {
	q     refQueue
	seq   int64
	now   int64
	alive []bool
	inc   []int
	nic   []int64 // per node, when its NIC is free again
	fired []fire
}

type fire struct {
	id int
	at int64
}

type refTimer struct {
	node, inc, id int
	gen           int
	pending       bool
}

type refResource struct {
	busy   []int64
	queued int
	gen    int
}

func (r *refSched) schedule(at int64, e *refEvent) {
	r.seq++
	e.at, e.seq = max(at, r.now), r.seq
	heap.Push(&r.q, e)
}

func (r *refSched) reset(t *refTimer, d time.Duration) {
	t.gen++
	t.pending = true
	r.schedule(r.now+int64(d), &refEvent{kind: kindTimer, timer: t, gen: t.gen})
}

func (r *refSched) stop(t *refTimer) bool {
	was := t.pending
	t.pending = false
	return was
}

func (r *refSched) send(from, to, id int) {
	depart := r.now
	if from != to {
		depart = max(depart, r.nic[from]) + 4096
		r.nic[from] = depart
	}
	r.schedule(depart+120_000, &refEvent{kind: kindDeliver, node: to, id: id})
}

func (r *refSched) acquire(res *refResource, d time.Duration, id int) {
	best := 0
	for i := range res.busy {
		if res.busy[i] < res.busy[best] {
			best = i
		}
	}
	end := max(r.now, res.busy[best]) + int64(d)
	res.busy[best] = end
	res.queued++
	r.schedule(end, &refEvent{kind: kindResource, res: res, gen: res.gen, id: id})
}

func (res *refResource) reset() {
	res.gen++
	res.queued = 0
	clear(res.busy)
}

func (r *refSched) crash(node int) {
	r.alive[node] = false
	r.inc[node]++
}

// restart brings node up; like the simulator, it posts the node's Start.
func (r *refSched) restart(node int) {
	r.alive[node] = true
	r.schedule(r.now, &refEvent{kind: kindNode, node: node, inc: r.inc[node]})
}

func (r *refSched) runUntil(limit int64) {
	for r.q.Len() > 0 && r.q[0].at <= limit {
		e := heap.Pop(&r.q).(*refEvent)
		run := true
		switch e.kind {
		case kindTimer:
			t := e.timer
			if !t.pending || t.gen != e.gen {
				continue // stale: discarded without advancing the clock
			}
			t.pending = false
			e.id = t.id
			run = r.alive[t.node] && r.inc[t.node] == t.inc
		case kindNode:
			run = r.alive[e.node] && r.inc[e.node] == e.inc
		case kindDeliver:
			run = r.alive[e.node]
		case kindResource:
			if run = e.res.gen == e.gen; run {
				e.res.queued--
			}
		}
		r.now = e.at
		if run && e.id != 0 {
			r.fired = append(r.fired, fire{e.id, e.at})
		}
	}
	r.now = max(r.now, limit)
}

// TestScheduleMatchesReferenceModel drives the simulator and refSched with
// the same seeded random schedule — global callbacks, node timers armed,
// re-armed and stopped, posts, sends, jobs with and without a completion on a
// 1-worker and a 2-worker resource, resource resets, crashes and restarts —
// over 1,000 seeds. After every operation both must have run the same
// callbacks in the same order, each at the same virtual time, agree on every
// Stop's answer, and report the same QueueLen on both resources.
func TestScheduleMatchesReferenceModel(t *testing.T) {
	const nodes = 3
	schedules, rounds := 1000, 400
	if testing.Short() {
		schedules = 100
	}
	total := 0
	for seed := int64(1); seed <= int64(schedules); seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Jitter cannot be zero (that asks for the default); this rounds to it.
		s := New(Config{Seed: uint64(seed), Net: NetConfig{Jitter: 1e-9}})
		ref := &refSched{alive: make([]bool, nodes), inc: make([]int, nodes), nic: make([]int64, nodes)}
		var got []fire
		record := func(id int) func() {
			return func() { got = append(got, fire{id, s.Now().UnixNano()}) }
		}
		envs := make([]env.Env, nodes) // the live incarnation's Env, nil while down
		for i := range envs {
			s.AddNode(func() env.Node {
				return &envCapture{at: &envs[i], receive: func(msg env.Message) { record(msg.(int))() }}
			})
		}
		s.StartAll()
		for i := range envs {
			ref.restart(i)
		}
		type timerPair struct {
			tm  env.Timer
			ref *refTimer
		}
		var timers []timerPair
		res := [2]*Resource{NewResource(s, 1), NewResource(s, 2)}
		refRes := [2]*refResource{{busy: make([]int64, 1)}, {busy: make([]int64, 2)}}
		nextID := 0
		newID := func() int { nextID++; return nextID }
		run := func(until time.Time) {
			s.RunUntil(until)
			ref.runUntil(until.UnixNano())
		}
		run(s.Now().Add(time.Millisecond))
		for round := 0; round < rounds; round++ {
			node := rng.Intn(nodes)
			d := time.Duration(rng.Intn(5)) * 100 * time.Microsecond
			up := envs[node] != nil
			switch op := rng.Intn(100); {
			case op < 10:
				id := newID()
				s.After(d, record(id))
				ref.schedule(ref.now+int64(d), &refEvent{kind: kindGlobal, id: id})
			case op < 25 && up:
				id := newID()
				rt := &refTimer{node: node, inc: ref.inc[node], id: id}
				ref.reset(rt, d)
				timers = append(timers, timerPair{envs[node].After(d, record(id)), rt})
			case op < 33 && up:
				id := newID()
				envs[node].Post(record(id))
				ref.schedule(ref.now, &refEvent{kind: kindNode, node: node, inc: ref.inc[node], id: id})
			case op < 43 && up:
				id, to := newID(), rng.Intn(nodes)
				envs[node].Send(env.NodeID(to), id)
				ref.send(node, to, id)
			case op < 50 && len(timers) > 0:
				p := timers[rng.Intn(len(timers))]
				if got, want := p.tm.Stop(), ref.stop(p.ref); got != want {
					t.Fatalf("seed %d round %d: Stop reported %v on timer %d, the reference model %v", seed, round, got, p.ref.id, want)
				}
			case op < 62 && len(timers) > 0:
				// Pending, fired, stopped or orphaned by a crash: the timer
				// runs its callback once more, as the incarnation that made it.
				p := timers[rng.Intn(len(timers))]
				p.tm.Reset(d)
				ref.reset(p.ref, d)
			case op < 80:
				// Bursts, so that jobs queue behind one another.
				k := rng.Intn(2)
				for n := 1 + rng.Intn(4); n > 0; n-- {
					id, done := 0, (func())(nil)
					if rng.Intn(2) == 0 {
						id = newID()
						done = record(id)
					}
					res[k].Acquire(d, done)
					ref.acquire(refRes[k], d, id)
				}
			case op < 82:
				k := rng.Intn(2)
				res[k].Reset()
				refRes[k].reset()
			case op < 85 && up:
				s.Crash(env.NodeID(node))
				envs[node] = nil
				ref.crash(node)
			case op < 90 && !up:
				s.Restart(env.NodeID(node))
				ref.restart(node)
				run(s.Now()) // the Start event hands over the new Env
				if envs[node] == nil {
					t.Fatalf("seed %d: node %d did not start", seed, node)
				}
			default:
				run(s.Now().Add(time.Duration(rng.Intn(4)) * 100 * time.Microsecond))
			}
			if s.Now().UnixNano() != ref.now {
				t.Fatalf("seed %d round %d: the clock reads %d, the reference model's %d", seed, round, s.Now().UnixNano(), ref.now)
			}
			for k := range res {
				if got, want := res[k].QueueLen(), refRes[k].queued; got != want {
					t.Fatalf("seed %d round %d: %d-worker resource holds %d jobs, the reference model %d", seed, round, k+1, got, want)
				}
			}
			if len(got) != len(ref.fired) {
				t.Fatalf("seed %d round %d: %d callbacks ran, the reference model runs %d", seed, round, len(got), len(ref.fired))
			}
		}
		for i := range got {
			if got[i] != ref.fired[i] {
				t.Fatalf("seed %d: callback %d was %+v, the reference model has %+v", seed, i, got[i], ref.fired[i])
			}
		}
		total += len(got)
	}
	if total < 150*schedules {
		t.Fatalf("only %d callbacks ran over %d schedules; the mix is not exercising the loop", total, schedules)
	}
}

// envCapture is a node that publishes its incarnation's Env and hands what
// it receives to receive.
type envCapture struct {
	at      *env.Env
	receive func(env.Message)
}

func (n *envCapture) Start(e env.Env)                       { *n.at = e }
func (n *envCapture) Receive(_ env.NodeID, msg env.Message) { n.receive(msg) }

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

// pendingEntries is what the loop still has to pop: the event heap's entries
// and the armed timers.
func pendingEntries(s *Sim) int { return len(s.queue) + len(s.timers) }

// TestHeapHoldsOnlyLiveEvents: the loop holds an entry for what will run and
// for nothing else. A thousand timers re-armed a hundred times each are a
// thousand entries (a hundred thousand while a Reset left the old arming in
// the queue to be discarded when it surfaced); ten thousand jobs waiting for
// a one-worker resource are one, the job in service; a stopped timer is none.
func TestHeapHoldsOnlyLiveEvents(t *testing.T) {
	s, a := countPair(t)
	if n := pendingEntries(s); n != 0 {
		t.Fatalf("%d entries before anything was scheduled", n)
	}
	fired := 0
	fn := func() { fired++ }
	timers := make([]env.Timer, 1000)
	for i := range timers {
		timers[i] = a.e.After(time.Second, fn)
	}
	for round := 1; round <= 100; round++ {
		for i, tm := range timers {
			// Earlier and later than the arming it replaces, by turns.
			tm.Reset(time.Second + time.Duration((i*round)%200-100)*time.Millisecond)
		}
	}
	if n := pendingEntries(s); n > len(timers) {
		t.Errorf("%d timers re-armed 100 times each hold %d entries", len(timers), n)
	}
	for _, tm := range timers[:500] {
		if !tm.Stop() {
			t.Fatal("Stop did not find an armed timer armed")
		}
	}
	if n := pendingEntries(s); n != 500 {
		t.Errorf("500 armed timers and 500 stopped ones hold %d entries", n)
	}
	s.RunFor(2 * time.Second)
	if fired != 500 || pendingEntries(s) != 0 {
		t.Errorf("%d of the 500 armed timers fired, %d entries left", fired, pendingEntries(s))
	}

	cpu := NewResource(s, 1)
	fired = 0
	for i := 0; i < 10_000; i++ {
		cpu.Acquire(time.Microsecond, fn)
	}
	if n := pendingEntries(s); n != 1 || cpu.QueueLen() != 10_000 {
		t.Errorf("%d jobs queued on one worker hold %d entries, want 1", cpu.QueueLen(), n)
	}
	s.RunFor(5 * time.Millisecond)
	if n := pendingEntries(s); n != 1 || cpu.QueueLen() != 5000 || fired != 5000 {
		t.Errorf("half way: %d jobs done, %d queued, %d entries; want 5000, 5000 and 1", fired, cpu.QueueLen(), n)
	}
	s.RunFor(5 * time.Millisecond)
	if fired != 10_000 || cpu.QueueLen() != 0 || pendingEntries(s) != 0 {
		t.Errorf("%d jobs done, %d queued, %d entries left", fired, cpu.QueueLen(), pendingEntries(s))
	}
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
		group[i] = env.Record{Data: "vote", Size: 96}
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
	procs := runtime.GOMAXPROCS(1) // the statistics count every goroutine's allocations
	runtime.ReadMemStats(&before)
	appendGroups(groups)
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(procs)
	if durable != (10+groups)*len(group) {
		t.Fatalf("%d records durable, want %d", durable, (10+groups)*len(group))
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(groups*len(group))
	t.Logf("%.1f B per appended record", per)
	if per > 45 {
		t.Errorf("an appended record allocates %.4f B, budget 45", per)
	}
}
