package livenet

import (
	"context"
	"sync"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
)

// counter is a trivial deterministic state machine.
type counter struct {
	mu    sync.Mutex
	total int64
}

func (m *counter) Execute(action any) any {
	d, ok := action.(int64)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += d
	return m.total
}

func (m *counter) Snapshot() (any, int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total, 64
}

func (m *counter) Restore(data any) {
	v, ok := data.(int64)
	if !ok {
		return
	}
	m.mu.Lock()
	m.total = v
	m.mu.Unlock()
}

func (m *counter) value() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// slots is a mutex-protected registry for objects the node factories
// rebuild on every incarnation (the test goroutine reads them while node
// loops replace them).
type slots struct {
	mu       sync.Mutex
	replicas []*core.Replica
	counters []*counter
}

func (sl *slots) set(i int, r *core.Replica, m *counter) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.replicas[i] = r
	sl.counters[i] = m
}

func (sl *slots) replica(i int) *core.Replica {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return sl.replicas[i]
}

func (sl *slots) counterValue(i int) int64 {
	sl.mu.Lock()
	m := sl.counters[i]
	sl.mu.Unlock()
	if m == nil {
		return -1
	}
	return m.value()
}

func buildCluster(t *testing.T, n int, fast bool) (*Cluster, *slots) {
	t.Helper()
	c := New(Config{Latency: 100 * time.Microsecond, Seed: 9})
	sl := &slots{
		replicas: make([]*core.Replica, n),
		counters: make([]*counter, n),
	}
	for i := 0; i < n; i++ {
		idx := i
		c.AddNode(func() env.Node {
			m := &counter{}
			r := core.NewReplica(core.Config{
				Machine: func() core.StateMachine {
					return m
				},
				CheckpointInterval: 500 * time.Millisecond,
				Paxos: paxos.Config{
					FastEnabled:       fast,
					BatchDelay:        time.Millisecond,
					HeartbeatInterval: 20 * time.Millisecond,
					LeaderTimeout:     120 * time.Millisecond,
					SweepInterval:     10 * time.Millisecond,
				},
			})
			sl.set(idx, r, m)
			return r
		})
	}
	c.StartAll()
	t.Cleanup(c.Close)
	return c, sl
}

func TestLiveReplicatedCounter(t *testing.T) {
	_, sl := buildCluster(t, 3, false)
	waitReady(t, sl.replica(0))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var want int64
	for i := int64(1); i <= 20; i++ {
		res, err := sl.replica(int(i)%3).Execute(ctx, i)
		if err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
		want += i
		_ = res
	}
	// The submitting replica observed each result locally; the others
	// converge shortly after.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if sl.counterValue(0) == want && sl.counterValue(1) == want && sl.counterValue(2) == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("counters did not converge to %d: %d %d %d",
		want, sl.counterValue(0), sl.counterValue(1), sl.counterValue(2))
}

// TestLiveVotesSharedAcrossReplicas: on this runtime a record a paxos engine
// sends is one object that several node goroutines hold at once — a vote in
// the acceptor's log slot and WAL and in the coordinator's vote set, an
// announcement in every learner's slot, an accept or a forward until its
// receiver has voted or proposed, and the value's command slice in all of them
// — so nothing may write to one after it is sent (paxos.Value states the rule;
// the engine takes these records from slabs that never hand one out twice).
// Four replicas, three of them submitting at once, then a crash whose restart
// replays the shared votes and catches up: in fast rounds, so that rounds
// collide and are recovered, and in classic rounds, where every value a
// follower submits is forwarded to the leader and every value goes out in an
// accept. Under -race a late write is a report.
func TestLiveVotesSharedAcrossReplicas(t *testing.T) {
	for _, mode := range []struct {
		name string
		fast bool
	}{{"fast", true}, {"classic", false}} {
		t.Run(mode.name, func(t *testing.T) { shareRecords(t, mode.fast) })
	}
}

func shareRecords(t *testing.T, fast bool) {
	const n, each = 4, 60
	c, sl := buildCluster(t, n, fast)
	waitReady(t, sl.replica(0))

	// No start-up wait: the first values reach a fresh leader while its gap
	// repair is recovering instance 0, and must not displace that recovery
	// (paxos.TestFreshLeaderKeepsRecoveredInstance is the directed form).
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	add := func(rounds int) {
		var wg sync.WaitGroup
		for id := 0; id < n-1; id++ {
			r := sl.replica(id)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if _, err := r.Execute(ctx, int64(1)); err != nil {
						t.Errorf("execute: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	add(each)
	c.Crash(n - 1)
	add(each)
	c.Restart(n - 1)
	want := int64(2 * each * (n - 1))
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for id := 0; id < n; id++ {
			done = done && sl.counterValue(id) == want
		}
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("counters did not converge to %d: %d %d %d %d", want,
		sl.counterValue(0), sl.counterValue(1), sl.counterValue(2), sl.counterValue(3))
}

func TestLiveCrashRecovery(t *testing.T) {
	c, sl := buildCluster(t, 3, false)
	waitReady(t, sl.replica(0))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var want int64
	add := func(from int, d int64) {
		t.Helper()
		if _, err := sl.replica(from).Execute(ctx, d); err != nil {
			t.Fatalf("execute: %v", err)
		}
		want += d
	}
	add(0, 5)
	add(1, 7)

	c.Crash(2)
	add(0, 11) // majority still live: progress continues
	add(1, 13)

	c.Restart(2)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if sl.counterValue(2) == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("restarted replica at %d, want %d", sl.counterValue(2), want)
}

// sequence is a state machine that records the order it applies actions
// in.
type sequence struct {
	mu      sync.Mutex
	applied []int
}

func (m *sequence) Execute(action any) any {
	v, ok := action.(int)
	if !ok {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applied = append(m.applied, v)
	return v
}

func (m *sequence) Snapshot() (any, int64) {
	got := m.values()
	return got, int64(64 + 8*len(got))
}

func (m *sequence) Restore(data any) {
	items, ok := data.([]int)
	if !ok {
		return
	}
	m.mu.Lock()
	m.applied = append([]int(nil), items...)
	m.mu.Unlock()
}

func (m *sequence) values() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]int(nil), m.applied...)
}

// TestLiveTotalOrder: nine submissions spread across three replicas are
// applied in one order on every replica, each exactly once.
func TestLiveTotalOrder(t *testing.T) {
	c := New(Config{Latency: 100 * time.Microsecond, Seed: 10})
	const n = 3
	machines := make([]*sequence, n)
	replicas := make([]*core.Replica, n)
	for i := 0; i < n; i++ {
		m := &sequence{}
		r := core.NewReplica(core.Config{
			Machine: func() core.StateMachine { return m },
			Paxos: paxos.Config{
				BatchDelay:        time.Millisecond,
				HeartbeatInterval: 20 * time.Millisecond,
				LeaderTimeout:     120 * time.Millisecond,
				SweepInterval:     10 * time.Millisecond,
			},
		})
		machines[i], replicas[i] = m, r
		c.AddNode(func() env.Node { return r })
	}
	c.StartAll()
	t.Cleanup(c.Close)
	for _, r := range replicas {
		waitReady(t, r)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 9)
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = replicas[i%n].Execute(ctx, i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d on replica %d: %v", i, i%n, err)
		}
	}
	// Every replica applies the same sequence.
	var first []int
	for r := 0; r < n; r++ {
		got := machines[r].values()
		for deadline := time.Now().Add(30 * time.Second); len(got) < 9 && time.Now().Before(deadline); got = machines[r].values() {
			time.Sleep(10 * time.Millisecond)
		}
		if len(got) != 9 {
			t.Fatalf("replica %d applied %v, want 9 values", r, got)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("replica %d order differs at %d: %v vs %v", r, i, got, first)
			}
		}
	}
	// All nine distinct values arrived.
	seen := make(map[int]bool)
	for _, v := range first {
		seen[v] = true
	}
	if len(seen) != 9 {
		t.Fatalf("expected 9 distinct values, got %v", first)
	}
}

// pingNode records everything it receives (for the link-filter tests).
type pingNode struct {
	mu  sync.Mutex
	e   env.Env
	got []env.Message
}

func (n *pingNode) Start(e env.Env) {
	n.mu.Lock()
	n.e = e
	n.mu.Unlock()
}

func (n *pingNode) Receive(from env.NodeID, msg env.Message) {
	n.mu.Lock()
	n.got = append(n.got, msg)
	n.mu.Unlock()
}

func (n *pingNode) env() env.Env {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.e
}

func (n *pingNode) count() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.got)
}

func pingCluster(t *testing.T, n int) (*Cluster, []*pingNode) {
	t.Helper()
	c := New(Config{Latency: 50 * time.Microsecond, Seed: 11})
	nodes := make([]*pingNode, n)
	for i := 0; i < n; i++ {
		p := &pingNode{}
		nodes[i] = p
		c.AddNode(func() env.Node { return p })
	}
	c.StartAll()
	t.Cleanup(c.Close)
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range nodes {
		for p.env() == nil && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if p.env() == nil {
			t.Fatal("node never started")
		}
	}
	return c, nodes
}

// settle gives in-flight deliveries time to land.
func settle() { time.Sleep(20 * time.Millisecond) }

// TestPartitionExtendsToLateNodes is this runtime's one test that sends
// consult the link-fault table (netfault.TestTable holds the table's own
// behaviours): a partition blocks traffic both ways, a node added during it
// joins the majority side instead of straddling it, and the handle heals
// from outside the node loops.
func TestPartitionExtendsToLateNodes(t *testing.T) {
	c, nodes := pingCluster(t, 2)
	h := c.Links().Open(netfault.Fault{Nodes: []env.NodeID{1}, Sever: true})
	late := &pingNode{}
	id := c.AddNode(func() env.Node { return late })
	c.Restart(id)
	deadline := time.Now().Add(5 * time.Second)
	for late.env() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	late.env().Send(1, "must not cross")
	nodes[1].env().Send(id, "must not cross either")
	late.env().Send(0, "majority side flows")
	settle()
	if nodes[1].count() != 0 || late.count() != 0 {
		t.Fatalf("late node straddles the partition: victim got %d, late got %d",
			nodes[1].count(), late.count())
	}
	if nodes[0].count() != 1 {
		t.Fatalf("majority-side delivery failed: got %d, want 1", nodes[0].count())
	}
	h.Heal()
	late.env().Send(1, "healed")
	settle()
	if nodes[1].count() != 1 {
		t.Fatalf("after heal victim got %d, want 1", nodes[1].count())
	}
}

// TestLivePartitionedReplicaCatchesUp: the replication stack under the
// filter — a partitioned minority member makes no progress, and converges
// after heal.
func TestLivePartitionedReplicaCatchesUp(t *testing.T) {
	c, sl := buildCluster(t, 3, false)
	waitReady(t, sl.replica(0))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var want int64
	add := func(from int, d int64) {
		t.Helper()
		if _, err := sl.replica(from).Execute(ctx, d); err != nil {
			t.Fatalf("execute: %v", err)
		}
		want += d
	}
	add(0, 5)
	h := c.Links().Open(netfault.Fault{Nodes: []env.NodeID{2}, Sever: true})
	add(0, 11) // majority keeps committing
	add(1, 13)
	h.Heal()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if sl.counterValue(2) == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("partitioned replica at %d after heal, want %d", sl.counterValue(2), want)
}

func waitReady(t *testing.T, r *core.Replica) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if r != nil && r.Ready() && r.HasLeader() {
			// A leader exists, so the first Execute does not race the
			// initial election.
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replica never became ready")
}

// sizedMsg carries an explicit wire size, to exercise the gray filter's
// control/bulk distinction.
type sizedMsg struct {
	Body string
	Size int64
}

func (m sizedMsg) WireSize() int64 { return m.Size }

// TestGrayDropsBulkKeepsControl: a gray-failed node keeps receiving
// small control traffic (pings, prepares, probes) while value-bearing
// messages vanish — the probe-healthy / work-sick asymmetry. Clearing
// the rate restores bulk delivery.
func TestGrayDropsBulkKeepsControl(t *testing.T) {
	c, nodes := pingCluster(t, 2)
	c.SetGray(1, 1.0)
	nodes[0].env().Send(1, sizedMsg{Body: "bulk", Size: grayControlSize + 1})
	nodes[0].env().Send(1, sizedMsg{Body: "control", Size: 48})
	nodes[0].env().Send(1, "untyped bulk") // no WireSize ⇒ counts as bulk
	settle()
	if got := nodes[1].count(); got != 1 {
		t.Fatalf("gray node received %d messages, want only the control one", got)
	}
	// The victim's outbound path is untouched: it still acks.
	nodes[1].env().Send(0, "ack")
	settle()
	if nodes[0].count() != 1 {
		t.Fatalf("gray node's outbound ack lost")
	}
	c.SetGray(1, 0)
	nodes[0].env().Send(1, sizedMsg{Body: "bulk again", Size: grayControlSize + 1})
	settle()
	if got := nodes[1].count(); got != 2 {
		t.Fatalf("restored node received %d messages, want 2", got)
	}
}

// TestLiveLinkDelayStillDelivers: an inflated link slows messages down
// without losing them, and healing the fault restores the native latency.
func TestLiveLinkDelayStillDelivers(t *testing.T) {
	c, nodes := pingCluster(t, 2)
	h := c.Links().Open(netfault.Fault{Nodes: []env.NodeID{0}, Peers: []env.NodeID{1},
		Dir: env.LinkOutboundOnly, Delay: 400}) // 50 µs base ⇒ ≥ 20 ms inflated
	start := time.Now()
	nodes[0].env().Send(1, "slow")
	settle()
	if nodes[1].count() != 0 && time.Since(start) < 10*time.Millisecond {
		t.Fatalf("delayed link delivered within %v", time.Since(start))
	}
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].count() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if nodes[1].count() != 1 {
		t.Fatal("delayed link lost the message")
	}
	h.Heal()
	nodes[0].env().Send(1, "quick")
	settle()
	if nodes[1].count() != 2 {
		t.Fatalf("restored link received %d messages, want 2", nodes[1].count())
	}
}

// TestLiveTimerReset: the env.Timer contract on the wall clock, the cases of
// sim's TestTimerReset. Every timer call is made on the node's loop, as the
// contract asks; the callback reports each run on a channel.
func TestLiveTimerReset(t *testing.T) {
	const short, long = 10 * time.Millisecond, 150 * time.Millisecond
	start := func(t *testing.T, d time.Duration) (c *Cluster, on func(func(env.Timer)), fires chan time.Time) {
		c, nodes := pingCluster(t, 1)
		fires = make(chan time.Time, 8) // more than any case runs the callback
		made := make(chan env.Timer)
		c.Post(0, func() { made <- nodes[0].env().After(d, func() { fires <- time.Now() }) })
		tm := <-made
		on = func(fn func(env.Timer)) {
			ran := make(chan struct{})
			c.Post(0, func() { fn(tm); close(ran) })
			<-ran
		}
		return c, on, fires
	}
	fired := func(t *testing.T, fires chan time.Time) time.Time {
		t.Helper()
		select {
		case at := <-fires:
			return at
		case <-time.After(5 * time.Second):
			t.Fatal("the timer never fired")
			return time.Time{}
		}
	}
	quiet := func(t *testing.T, fires chan time.Time, d time.Duration) {
		t.Helper()
		select {
		case <-fires:
			t.Fatal("the callback ran")
		case <-time.After(d):
		}
	}
	t.Run("while pending supersedes", func(t *testing.T) {
		_, on, fires := start(t, long)
		t0 := time.Now()
		on(func(tm env.Timer) { tm.Reset(2 * long) })
		if at := fired(t, fires); at.Sub(t0) < 2*long {
			t.Fatalf("ran %v after the Reset, want no sooner than %v", at.Sub(t0), 2*long)
		}
		quiet(t, fires, long)
	})
	t.Run("after fire re-arms", func(t *testing.T) {
		_, on, fires := start(t, short)
		fired(t, fires)
		on(func(tm env.Timer) { tm.Reset(short) })
		fired(t, fires)
		quiet(t, fires, 5*short)
	})
	t.Run("after Stop re-arms", func(t *testing.T) {
		_, on, fires := start(t, long)
		on(func(tm env.Timer) {
			if !tm.Stop() {
				t.Error("Stop on a pending timer must report true")
			}
			tm.Reset(short)
		})
		fired(t, fires)
		quiet(t, fires, 2*long)
	})
	t.Run("Stop after Reset", func(t *testing.T) {
		_, on, fires := start(t, short)
		fired(t, fires)
		on(func(tm env.Timer) {
			tm.Reset(long)
			if !tm.Stop() {
				t.Error("Stop on a re-armed timer must report true")
			}
			if tm.Stop() {
				t.Error("second Stop must report false")
			}
		})
		quiet(t, fires, 2*long)
	})
	t.Run("crash kills a re-armed timer", func(t *testing.T) {
		c, on, fires := start(t, short)
		fired(t, fires)
		on(func(tm env.Timer) { tm.Reset(long) })
		c.Crash(0)
		c.Restart(0)
		quiet(t, fires, 2*long)
	})
}
