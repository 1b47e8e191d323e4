package sim

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
)

// echoNode replies to every message and records what it saw.
type echoNode struct {
	e        env.Env
	started  int
	received []string
}

func (n *echoNode) Start(e env.Env) {
	n.e = e
	n.started++
}

func (n *echoNode) Receive(from env.NodeID, msg env.Message) {
	s, ok := msg.(string)
	if !ok {
		return
	}
	n.received = append(n.received, s)
	if s == "ping" {
		n.e.Send(from, "pong")
	}
}

// holder tracks the current incarnation of a test node across restarts.
type holder struct{ n *echoNode }

func twoNodes(t *testing.T, cfg Config) (*Sim, *holder, *holder) {
	t.Helper()
	s := New(cfg)
	a, b := &holder{}, &holder{}
	s.AddNode(func() env.Node { a.n = &echoNode{}; return a.n })
	s.AddNode(func() env.Node { b.n = &echoNode{}; return b.n })
	s.StartAll()
	s.RunFor(time.Millisecond)
	return s, a, b
}

func TestSendReceiveRoundTrip(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 1})
	s.At(s.Now(), func() { a.n.e.Send(1, "ping") })
	s.RunFor(10 * time.Millisecond)
	if len(b.n.received) != 1 || b.n.received[0] != "ping" {
		t.Fatalf("b received %v", b.n.received)
	}
	if len(a.n.received) != 1 || a.n.received[0] != "pong" {
		t.Fatalf("a received %v", a.n.received)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	s := New(Config{Seed: 1})
	start := s.Now()
	fired := time.Time{}
	s.After(42*time.Second, func() { fired = s.Now() })
	s.RunFor(time.Minute)
	if got := fired.Sub(start); got != 42*time.Second {
		t.Fatalf("timer fired at +%v, want +42s", got)
	}
	if got := s.Now().Sub(start); got != time.Minute {
		t.Fatalf("clock at +%v, want +1m", got)
	}
}

func TestEventOrderingDeterministic(t *testing.T) {
	run := func() []int {
		s := New(Config{Seed: 7})
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.After(time.Duration(i%3)*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		s.RunFor(10 * time.Millisecond)
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order: %v vs %v", a, b)
		}
	}
	// Same-time events run in scheduling order.
	if a[0] != 0 || a[1] != 3 {
		t.Fatalf("tie-break violated: %v", a)
	}
}

func TestCrashDropsTimersAndMessages(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 2})
	fired := false
	s.At(s.Now(), func() {
		b.n.e.After(5*time.Millisecond, func() { fired = true })
	})
	s.Crash(1)
	s.At(s.Now(), func() { a.n.e.Send(1, "lost") })
	s.RunFor(20 * time.Millisecond)
	if fired {
		t.Fatal("timer of crashed node fired")
	}
	if len(b.n.received) != 0 {
		t.Fatalf("crashed node received %v", b.n.received)
	}
	if s.Alive(1) {
		t.Fatal("node 1 should be dead")
	}
}

func TestRestartCreatesFreshIncarnation(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 3})
	first := b.n
	s.Crash(1)
	s.Restart(1)
	s.RunFor(time.Millisecond)
	if !s.Alive(1) {
		t.Fatal("node 1 should be alive after restart")
	}
	// The factory builds a fresh object per incarnation: volatile state
	// does not survive a crash.
	if b.n == first {
		t.Fatal("restart reused the crashed node object")
	}
	if b.n.started != 1 {
		t.Fatalf("fresh incarnation started %d times", b.n.started)
	}
}

// TestPartitionBlocksTraffic is this runtime's one test that sends consult
// the link-fault table; netfault.TestTable holds the table's own behaviours
// (composing handles, one-way loss, late peers).
func TestPartitionBlocksTraffic(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 4})
	h := s.Links().Open(netfault.Fault{Nodes: []env.NodeID{1}, Sever: true})
	s.At(s.Now(), func() { a.n.e.Send(1, "ping") })
	s.RunFor(10 * time.Millisecond)
	if len(b.n.received) != 0 {
		t.Fatalf("partitioned node received %v", b.n.received)
	}
	h.Heal()
	s.At(s.Now(), func() { a.n.e.Send(1, "ping") })
	s.RunFor(10 * time.Millisecond)
	if len(b.n.received) != 1 {
		t.Fatalf("healed node received %v", b.n.received)
	}
}

func TestMessageLossRate(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 5})
	both := []env.NodeID{0, 1}
	s.Links().Open(netfault.Fault{Nodes: both, Peers: both, Loss: 0.5}) // every ordered pair, self-links included
	const sent = 2000
	s.At(s.Now(), func() {
		for i := 0; i < sent; i++ {
			a.n.e.Send(1, "m")
		}
	})
	s.RunFor(time.Second)
	got := len(b.n.received)
	if got < sent*35/100 || got > sent*65/100 {
		t.Fatalf("with 50%% loss, %d/%d delivered", got, sent)
	}
}

func TestTimerStop(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 6})
	fired := false
	var tm env.Timer
	s.At(s.Now(), func() {
		tm = b.n.e.After(5*time.Millisecond, func() { fired = true })
	})
	s.RunFor(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop reported failure on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported success")
	}
	s.RunFor(20 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStorageDurableAcrossCrash(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 7})
	appended := false
	s.At(s.Now(), func() {
		b.n.e.Storage().Append(env.Record{Data: 42, Size: 100},
			func(error) { appended = true })
	})
	s.RunFor(100 * time.Millisecond)
	if !appended {
		t.Fatal("append never completed")
	}
	s.Crash(1)
	s.Restart(1)
	s.RunFor(time.Millisecond)
	var got []env.Record
	s.At(s.Now(), func() {
		b.n.e.Storage().ReadRecords(func(recs []env.Record, err error) { got = recs })
	})
	s.RunFor(time.Second)
	if len(got) != 1 || got[0].Data != 42 {
		t.Fatalf("records after restart: %v", got)
	}
}

func TestStorageWriteLostOnCrashBeforeDurability(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 8, Disk: DiskConfig{SyncLatency: 50 * time.Millisecond}})
	s.At(s.Now(), func() {
		b.n.e.Storage().Append(env.Record{Data: 1, Size: 10}, nil)
	})
	// Crash before the 50 ms flush completes: the write must be lost.
	s.RunFor(10 * time.Millisecond)
	s.Crash(1)
	s.Restart(1)
	var got []env.Record
	s.RunFor(time.Millisecond)
	s.At(s.Now(), func() {
		b.n.e.Storage().ReadRecords(func(recs []env.Record, err error) { got = recs })
	})
	s.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("non-durable write survived crash: %v", got)
	}
}

func TestSnapshotRoundTripAndTruncate(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 9})
	done := 0
	s.At(s.Now(), func() {
		st := b.n.e.Storage()
		st.Append(env.Record{Data: 1, Size: 10}, func(error) { done++ })
		st.Append(env.Record{Data: 2, Size: 10}, func(error) { done++ })
		st.SaveSnapshot("app", env.Snapshot{Data: "state", Size: 1000}, func(error) { done++ })
	})
	s.RunFor(time.Second)
	if done != 3 {
		t.Fatalf("completions = %d", done)
	}
	var snap env.Snapshot
	var ok bool
	s.At(s.Now(), func() {
		b.n.e.Storage().LoadSnapshot("app", func(sn env.Snapshot, o bool) { snap, ok = sn, o })
		b.n.e.Storage().Truncate(1, nil)
	})
	s.RunFor(time.Second)
	if !ok || snap.Data != "state" {
		t.Fatalf("snapshot = %+v ok=%v", snap, ok)
	}
	var recs []env.Record
	s.At(s.Now(), func() {
		if fi := b.n.e.Storage().FirstIndex(); fi != 1 {
			t.Errorf("FirstIndex = %d, want 1", fi)
		}
		b.n.e.Storage().ReadRecords(func(r []env.Record, err error) { recs = r })
	})
	s.RunFor(time.Second)
	if len(recs) != 1 || recs[0].Data != 2 {
		t.Fatalf("after truncate: %v", recs)
	}
}

func TestDiskSerializesOperations(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 10, Disk: DiskConfig{
		SyncLatency: 10 * time.Millisecond, WriteBandwidth: 1e6, ReadBandwidth: 1e6,
	}})
	var first, second time.Time
	s.At(s.Now(), func() {
		st := b.n.e.Storage()
		st.Append(env.Record{Size: 10000}, func(error) { first = s.Now() })
		st.Append(env.Record{Size: 10000}, func(error) { second = s.Now() })
	})
	s.RunFor(time.Second)
	if first.IsZero() || second.IsZero() {
		t.Fatal("appends incomplete")
	}
	// Both were group-committed by one flush.
	if !first.Equal(second) {
		t.Fatalf("group commit expected: %v vs %v", first, second)
	}
}

func TestResource(t *testing.T) {
	s := New(Config{Seed: 11})
	r := NewResource(s, 1)
	var order []int
	r.Acquire(10*time.Millisecond, func() { order = append(order, 1) })
	r.Acquire(10*time.Millisecond, func() { order = append(order, 2) })
	if r.QueueLen() != 2 {
		t.Fatalf("queue len = %d", r.QueueLen())
	}
	s.RunFor(15 * time.Millisecond)
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("after 15ms: %v", order)
	}
	s.RunFor(10 * time.Millisecond)
	if len(order) != 2 || order[1] != 2 {
		t.Fatalf("after 25ms: %v", order)
	}
}

func TestResourceParallelWorkers(t *testing.T) {
	s := New(Config{Seed: 12})
	r := NewResource(s, 2)
	doneAt := make([]time.Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		r.Acquire(10*time.Millisecond, func() { doneAt[i] = s.Now() })
	}
	s.RunFor(50 * time.Millisecond)
	// Two run in parallel, the third queues behind one of them.
	if doneAt[0] != doneAt[1] {
		t.Fatalf("parallel jobs finished apart: %v %v", doneAt[0], doneAt[1])
	}
	if !doneAt[2].After(doneAt[0]) {
		t.Fatalf("third job did not queue: %v", doneAt[2])
	}
}

func TestResourceReset(t *testing.T) {
	s := New(Config{Seed: 13})
	r := NewResource(s, 1)
	fired := false
	r.Acquire(10*time.Millisecond, func() { fired = true })
	r.Reset()
	s.RunFor(time.Second)
	if fired {
		t.Fatal("callback fired after Reset")
	}
	if r.QueueLen() != 0 {
		t.Fatal("queue not cleared")
	}
}

func TestRunUntilIdle(t *testing.T) {
	s := New(Config{Seed: 14})
	count := 0
	s.After(time.Millisecond, func() { count++ })
	s.After(2*time.Millisecond, func() { count++ })
	if !s.RunUntilIdle(100) {
		t.Fatal("queue did not drain")
	}
	if count != 2 {
		t.Fatalf("ran %d events", count)
	}
}

// TestResourceResetOrphans: Reset drops the queue, not only its callbacks.
// Of five jobs queued on one worker (eight on two) only the heads were in the
// event heap, so only they are left behind; a job admitted after the Reset runs
// at now + d, not behind the dropped ones; and a head surfacing later runs
// nothing and completes nothing.
func TestResourceResetOrphans(t *testing.T) {
	for workers := 1; workers <= 2; workers++ {
		s := New(Config{Seed: 13})
		r := NewResource(s, workers)
		stale := 0
		for i := 0; i < 4*workers+1; i++ {
			r.Acquire(time.Millisecond, func() { stale++ })
		}
		s.RunFor(500 * time.Microsecond)
		r.Reset()
		if r.QueueLen() != 0 {
			t.Fatalf("%d workers: %d jobs queued after Reset", workers, r.QueueLen())
		}
		if n := pendingEntries(s); n > workers {
			t.Fatalf("%d workers: Reset left %d entries in the heap, want at most the %d orphaned heads", workers, n, workers)
		}
		var doneAt time.Time
		r.Acquire(time.Millisecond, func() { doneAt = s.Now() })
		want := s.Now().Add(time.Millisecond)
		s.RunFor(750 * time.Microsecond) // the orphaned heads surface here
		if stale != 0 || r.QueueLen() != 1 {
			t.Fatalf("%d workers: an orphaned head ran %d callbacks and left %d jobs queued, want 0 and 1", workers, stale, r.QueueLen())
		}
		if !s.RunUntilIdle(10) {
			t.Fatalf("%d workers: the queue did not drain", workers)
		}
		if stale != 0 || !doneAt.Equal(want) || r.QueueLen() != 0 {
			t.Fatalf("%d workers: the job admitted after Reset finished at %v (want %v), %d dropped callbacks ran, %d jobs queued",
				workers, doneAt, want, stale, r.QueueLen())
		}
	}
}

// TestRunUntilIdleCountsLiveEvents: an arming that was superseded or stopped
// is not an event. A timer re-armed ten times and then stopped leaves the
// simulation idle, with the clock where it was; one re-armed ten times runs
// once, and that is the one event RunUntilIdle spends.
func TestRunUntilIdleCountsLiveEvents(t *testing.T) {
	s, a := countPair(t)
	start := s.Now()
	fired := 0
	tm := a.e.After(time.Millisecond, func() { fired++ })
	for i := 2; i <= 11; i++ {
		tm.Reset(time.Duration(i) * time.Millisecond)
	}
	if !tm.Stop() {
		t.Fatal("Stop did not find the timer armed")
	}
	if !s.RunUntilIdle(1) || fired != 0 || !s.Now().Equal(start) {
		t.Fatalf("a stopped timer: drained=%v after %v with %d callbacks, want an idle simulation", pendingEntries(s) == 0, s.Now().Sub(start), fired)
	}
	for i := 1; i <= 11; i++ {
		tm.Reset(time.Duration(i) * time.Millisecond)
	}
	if !s.RunUntilIdle(1) || fired != 1 || s.Now().Sub(start) != 11*time.Millisecond {
		t.Fatalf("a re-armed timer: drained=%v after %v with %d callbacks, want one callback at 11ms", pendingEntries(s) == 0, s.Now().Sub(start), fired)
	}
}

// TestTimerStopAfterFireReportsFalse: the env.Timer contract — Stop
// reports whether the callback was prevented. The event loop used to pop
// events without clearing fn, so Stop on an already-fired timer claimed
// it prevented a callback that had already run.
func TestTimerStopAfterFireReportsFalse(t *testing.T) {
	s, a, _ := twoNodes(t, Config{Seed: 20})
	var tm env.Timer
	fired := false
	s.At(s.Now(), func() {
		tm = a.n.e.After(5*time.Millisecond, func() { fired = true })
	})
	s.RunFor(20 * time.Millisecond)
	if !fired {
		t.Fatal("timer never fired")
	}
	if tm.Stop() {
		t.Fatal("Stop claimed it prevented a callback that already ran")
	}

	// The counterpart: stopping before the fire prevents it and reports
	// true; a second Stop is a no-op reporting false.
	fired = false
	s.At(s.Now(), func() {
		tm = a.n.e.After(5*time.Millisecond, func() { fired = true })
	})
	s.RunFor(time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop before the fire must report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop must report false")
	}
	s.RunFor(20 * time.Millisecond)
	if fired {
		t.Fatal("stopped timer fired anyway")
	}
}

// TestTimerReset: the rest of the env.Timer contract. Reset arms the timer
// for one run, d from the call, whatever state it was in; a pending run is
// superseded, and the event it leaves in the queue neither runs nor moves the
// clock when it surfaces.
func TestTimerReset(t *testing.T) {
	start := func(t *testing.T) (*Sim, *holder, env.Timer, *[]time.Duration) {
		s, a, _ := twoNodes(t, Config{Seed: 21})
		t0 := s.Now()
		var fires []time.Duration
		tm := a.n.e.After(5*time.Millisecond, func() { fires = append(fires, s.Now().Sub(t0)) })
		return s, a, tm, &fires
	}
	ms := time.Millisecond
	expect := func(t *testing.T, fires *[]time.Duration, want ...time.Duration) {
		t.Helper()
		if len(*fires) != len(want) {
			t.Fatalf("callback ran at %v, want %v", *fires, want)
		}
		for i := range want {
			if (*fires)[i] != want[i] {
				t.Fatalf("callback ran at %v, want %v", *fires, want)
			}
		}
	}
	t.Run("while pending supersedes", func(t *testing.T) {
		s, _, tm, fires := start(t)
		s.RunFor(ms)
		tm.Reset(10 * ms)
		s.RunFor(30 * ms)
		expect(t, fires, 11*ms)
	})
	t.Run("after fire re-arms", func(t *testing.T) {
		s, _, tm, fires := start(t)
		s.RunFor(6 * ms)
		tm.Reset(2 * ms)
		s.RunFor(30 * ms)
		expect(t, fires, 5*ms, 8*ms)
		if tm.Stop() {
			t.Fatal("Stop claimed it prevented a run that already happened")
		}
	})
	t.Run("after Stop re-arms", func(t *testing.T) {
		s, _, tm, fires := start(t)
		tm.Stop()
		s.RunFor(6 * ms)
		tm.Reset(2 * ms)
		s.RunFor(30 * ms)
		expect(t, fires, 8*ms)
	})
	t.Run("Stop after Reset", func(t *testing.T) {
		s, _, tm, fires := start(t)
		s.RunFor(6 * ms)
		tm.Reset(2 * ms)
		if !tm.Stop() {
			t.Fatal("Stop on a re-armed timer must report true")
		}
		if tm.Stop() {
			t.Fatal("second Stop must report false")
		}
		s.RunFor(30 * ms)
		expect(t, fires, 5*ms)
	})
	t.Run("crash kills a re-armed timer", func(t *testing.T) {
		s, _, tm, fires := start(t)
		s.RunFor(6 * ms)
		tm.Reset(2 * ms)
		s.Crash(0)
		s.Restart(0)
		s.RunFor(10 * ms)
		// The timer is its incarnation's: re-arming it from beyond the
		// grave schedules a run that dies like the first.
		tm.Reset(2 * ms)
		s.RunFor(30 * ms)
		expect(t, fires, 5*ms)
	})
	t.Run("superseded event does not move the clock", func(t *testing.T) {
		s, _, tm, fires := start(t)
		t0 := s.Now()
		tm.Reset(ms) // the first arming's event stays queued at 5 ms
		if !s.RunUntilIdle(100) {
			t.Fatal("queue did not drain")
		}
		expect(t, fires, ms)
		if got := s.Now().Sub(t0); got != ms {
			t.Fatalf("the clock reads %v after the queue drained, want %v: the superseded event advanced it", got, ms)
		}
	})
}

// TestDiskSlowdownStretchesWrites: SlowDisk degrades a node's disk live —
// appends take factor× longer — and its heal returns to the configured
// timing. The degradation survives a crash/restart (it belongs to the
// hardware, not the incarnation), and overlapping slowdowns run at the
// worst one still open.
func TestDiskSlowdownStretchesWrites(t *testing.T) {
	appendTime := func(s *Sim, st env.Storage) time.Duration {
		start := s.Now()
		var done time.Time
		st.Append(env.Record{Size: 1 << 20}, func(error) { done = s.Now() })
		s.RunFor(time.Second)
		if done.IsZero() {
			t.Fatal("append never completed")
		}
		return done.Sub(start)
	}
	s, _, _ := twoNodes(t, Config{Seed: 24})
	base := appendTime(s, s.Storage(0))
	heal8 := s.SlowDisk(0, 8)
	slow := appendTime(s, s.Storage(0))
	if slow < 7*base {
		t.Fatalf("8x-degraded append took %v, healthy %v — not stretched", slow, base)
	}
	// Survives crash/restart.
	s.Crash(0)
	s.RunFor(time.Second)
	s.Restart(0)
	s.RunFor(time.Second)
	stillSlow := appendTime(s, s.Storage(0))
	if stillSlow < 7*base {
		t.Fatalf("post-restart degraded append took %v, healthy %v", stillSlow, base)
	}
	heal2 := s.SlowDisk(0, 2)
	if both := appendTime(s, s.Storage(0)); both < 7*base {
		t.Fatalf("8x and 2x open together: append took %v, healthy %v — the worst must run", both, base)
	}
	heal8()
	heal8() // a second heal changes nothing
	if rest := appendTime(s, s.Storage(0)); rest < 3*base/2 || rest > 3*base {
		t.Fatalf("8x healed, 2x still open: append took %v, healthy %v", rest, base)
	}
	heal2()
	restored := appendTime(s, s.Storage(0))
	if restored > 2*base {
		t.Fatalf("restored append took %v, healthy %v — not restored", restored, base)
	}
}

// TestAppendBatchOneFlush: a batch of records must be made durable by a
// single group commit — one sync latency plus the summed transfer time —
// not one flush per record, and the done callback must fire once, after
// the whole batch.
func TestAppendBatchOneFlush(t *testing.T) {
	const sync = 10 * time.Millisecond
	s, _, b := twoNodes(t, Config{Seed: 21, Disk: DiskConfig{SyncLatency: sync}})
	start := s.Now()
	var doneAt time.Time
	var calls int
	s.At(s.Now(), func() {
		recs := make([]env.Record, 16)
		for i := range recs {
			recs[i] = env.Record{Data: i, Size: 64}
		}
		b.n.e.Storage().AppendBatch(recs, func(error) {
			calls++
			doneAt = s.Now()
		})
	})
	s.RunFor(time.Second)
	if calls != 1 {
		t.Fatalf("done ran %d times, want once", calls)
	}
	// One flush: well under two sync latencies. Sixteen separate flushes
	// would cost ≥ 16 × sync.
	if el := doneAt.Sub(start); el >= 2*sync {
		t.Fatalf("batch took %v, want < %v (one group commit)", el, 2*sync)
	}
	var got []env.Record
	s.At(s.Now(), func() {
		b.n.e.Storage().ReadRecords(func(recs []env.Record, err error) { got = recs })
	})
	s.RunFor(time.Second)
	if len(got) != 16 {
		t.Fatalf("read back %d records, want 16", len(got))
	}
	for i, r := range got {
		if r.Data != i {
			t.Fatalf("record %d holds %v: batch order not preserved", i, r.Data)
		}
	}
}

// TestAppendBatchInterleavesInOrder: records from Append and AppendBatch
// calls must land on disk in issue order even when they share flushes.
func TestAppendBatchInterleavesInOrder(t *testing.T) {
	s, _, b := twoNodes(t, Config{Seed: 22})
	s.At(s.Now(), func() {
		st := b.n.e.Storage()
		st.Append(env.Record{Data: 0, Size: 8}, nil)
		st.AppendBatch([]env.Record{
			{Data: 1, Size: 8},
			{Data: 2, Size: 8},
		}, nil)
		st.Append(env.Record{Data: 3, Size: 8}, nil)
	})
	s.RunFor(time.Second)
	var got []env.Record
	s.At(s.Now(), func() {
		b.n.e.Storage().ReadRecords(func(recs []env.Record, err error) { got = recs })
	})
	s.RunFor(time.Second)
	if len(got) != 4 {
		t.Fatalf("read back %d records, want 4", len(got))
	}
	for i, r := range got {
		if r.Data != i {
			t.Fatalf("record %d holds %v: order not preserved", i, r.Data)
		}
	}
}

// TestPerLinkLoss: a loss fault drops traffic on exactly the directed link
// it covers, leaving the reverse direction and other links untouched.
func TestPerLinkLoss(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 23})
	h := s.Links().Open(oneLink(0, 1, netfault.Fault{Loss: 1}))
	s.At(s.Now(), func() { a.n.e.Send(1, "ping") })
	s.RunFor(10 * time.Millisecond)
	if len(b.n.received) != 0 {
		t.Fatalf("lossy link delivered %v", b.n.received)
	}
	// Reverse direction unaffected.
	s.At(s.Now(), func() { b.n.e.Send(0, "hello") })
	s.RunFor(10 * time.Millisecond)
	if len(a.n.received) != 1 || a.n.received[0] != "hello" {
		t.Fatalf("reverse direction received %v", a.n.received)
	}
	// Healing the fault restores delivery.
	h.Heal()
	s.At(s.Now(), func() { a.n.e.Send(1, "ping") })
	s.RunFor(10 * time.Millisecond)
	if len(b.n.received) != 1 {
		t.Fatalf("healed link received %v", b.n.received)
	}
}

// TestPerLinkLossPartial: a fractional per-link rate loses roughly that
// share of traffic on the configured link only.
func TestPerLinkLossPartial(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 24})
	s.Links().Open(oneLink(0, 1, netfault.Fault{Loss: 0.5}))
	const sent = 2000
	s.At(s.Now(), func() {
		for i := 0; i < sent; i++ {
			a.n.e.Send(1, "m")
		}
	})
	s.RunFor(time.Second)
	got := len(b.n.received)
	if got < sent*35/100 || got > sent*65/100 {
		t.Fatalf("with 50%% per-link loss, %d/%d delivered", got, sent)
	}
}

// TestPerLinkDelay: a delay fault inflates propagation latency on exactly
// the directed link it covers — messages still arrive (nothing drops),
// just late; the reverse direction keeps its native latency; healing the
// fault restores it.
func TestPerLinkDelay(t *testing.T) {
	s, a, b := twoNodes(t, Config{Seed: 29})
	h := s.Links().Open(oneLink(0, 1, netfault.Fault{Delay: 100})) // base 120 µs ⇒ 12-18 ms with jitter
	s.At(s.Now(), func() { a.n.e.Send(1, "slow") })
	s.RunFor(5 * time.Millisecond)
	if len(b.n.received) != 0 {
		t.Fatalf("delayed link delivered early: %v", b.n.received)
	}
	s.RunFor(25 * time.Millisecond)
	if len(b.n.received) != 1 || b.n.received[0] != "slow" {
		t.Fatalf("delayed link lost the message: %v", b.n.received)
	}
	// Reverse direction keeps native latency.
	s.At(s.Now(), func() { b.n.e.Send(0, "fast") })
	s.RunFor(time.Millisecond)
	if len(a.n.received) != 1 || a.n.received[0] != "fast" {
		t.Fatalf("reverse direction received %v", a.n.received)
	}
	// Healing the fault restores the link.
	h.Heal()
	s.At(s.Now(), func() { a.n.e.Send(1, "quick") })
	s.RunFor(time.Millisecond)
	if len(b.n.received) != 2 {
		t.Fatalf("restored link received %v", b.n.received)
	}
}

// oneLink narrows f to the one directed link from → to.
func oneLink(from, to env.NodeID, f netfault.Fault) netfault.Fault {
	f.Nodes, f.Peers, f.Dir = []env.NodeID{from}, []env.NodeID{to}, env.LinkOutboundOnly
	return f
}
