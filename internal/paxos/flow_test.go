package paxos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/sim"
)

// Proposer flow-control tests: when a partial batch leaves, FIFO ordering
// across the batch→queue boundary, queue-byte accounting, the in-flight
// cap as a real bound on every proposal path, deep-backlog draining (the
// O(n²) drain regression), and the admission controller's grades.

// sentValue is one value a proposer sent into the protocol: when it first
// left, and how many commands it carried.
type sentValue struct {
	at   time.Duration // since the simulation's start
	cmds int
}

func (v sentValue) String() string { return fmt.Sprintf("%v×%d", v.at, v.cmds) }

// watchProposals records every value node id proposes, the first time it
// leaves the node: forwarded to the leader, broadcast as a fast proposal, or
// sent as the leader's own accept.
func (c *testCluster) watchProposals(id int) *[]sentValue {
	var sent []sentValue
	seen := map[int64]bool{}
	c.onSend = func(from, to env.NodeID, msg env.Message) {
		var v *Value
		switch m := msg.(type) {
		case forwardMsg:
			v = m.V
		case fastProposeMsg:
			v = m.V
		case *acceptMsg:
			v = m.V
		}
		if from != env.NodeID(id) || v == nil || v.ID.Node != from || v.NoOp() || seen[v.ID.Seq] {
			return
		}
		seen[v.ID.Seq] = true
		sent = append(sent, sentValue{at: c.s.Now().Sub(time.Unix(0, 0)), cmds: len(v.Cmds)})
	}
	return &sent
}

// TestPartialBatchTiming: BatchDelay spaces partial batches, it does not
// hold them. A partial batch leaves at the end of the instant that queued
// it, carrying every command submitted in that instant, unless the
// proposer sent a partial batch less than BatchDelay ago: then it leaves
// exactly BatchDelay after that one, with whatever arrived meanwhile.
func TestPartialBatchTiming(t *testing.T) {
	const delay = 5 * time.Millisecond
	t0 := 2 * time.Second // the group has a leader by then
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	cases := []struct {
		name    string
		submits []time.Duration // one Submit each, as separate events, after t0
		want    []sentValue     // after t0
	}{
		{"lone submit leaves in its instant", []time.Duration{0}, []sentValue{{0, 1}}},
		{"one instant's submits share a value", []time.Duration{0, 0, 0}, []sentValue{{0, 3}}},
		{"a second partial waits out the gap",
			[]time.Duration{0, ms(1), ms(3), ms(12)},
			[]sentValue{{0, 1}, {delay, 2}, {ms(12), 1}}},
		{"a partial after a full gap leaves at once",
			[]time.Duration{0, delay, delay + ms(0.5)},
			[]sentValue{{0, 1}, {delay, 1}, {2 * delay, 1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testModes(t, func(t *testing.T, fast bool) {
				testTune = func(cfg *Config) { cfg.BatchDelay = delay }
				defer func() { testTune = nil }()
				c := newCluster(t, modeSize(fast), fast, 21, sim.NetConfig{})
				sent := c.watchProposals(1)
				for i, d := range tc.submits {
					c.submit(t0+d, 1, fmt.Sprintf("c%d", i))
				}
				c.s.RunFor(t0 + time.Second)
				got := *sent
				for i := range got {
					got[i].at -= t0
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("proposed (time after t0, commands) %v, want %v", got, tc.want)
				}
				c.requireDelivered(1, len(tc.submits))
				c.checkConsistency()
			})
		})
	}
}

// TestPipelineFIFO: a burst far larger than the in-flight window must be
// delivered in exact submission order — commands cross from the local
// queue into proposed values without reordering, and the learner applies
// instances in order.
func TestPipelineFIFO(t *testing.T) {
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 4
		cfg.MaxInFlight = 2
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 11, sim.NetConfig{})

	const total = 100
	for i := 0; i < total; i++ {
		c.submit(50*time.Millisecond, 0, fmt.Sprintf("cmd-%03d", i))
	}
	c.s.RunFor(8 * time.Second)

	c.requireDelivered(0, total)
	for i, got := range c.delivered[0] {
		if want := fmt.Sprintf("cmd-%03d", i); got != want {
			t.Fatalf("position %d: delivered %q, want %q (FIFO violated)", i, got, want)
		}
	}
	c.checkConsistency()
}

// TestInFlightCapUniform: no proposal path — size-triggered, deferred, or
// queue drain — may exceed MaxInFlight outstanding values. The pre-fix
// engine's timer flush bypassed the check and overshot the window. Under a
// steady stream with bursts on top, a full batch leaves as soon as the
// window has room, a partial batch waits only for the window or for
// BatchDelay since the last partial batch, and partial values leave at
// least BatchDelay apart.
func TestInFlightCapUniform(t *testing.T) {
	const batch, window, delay = 4, 2, 2 * time.Millisecond
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = batch
		cfg.MaxInFlight = window
		cfg.BatchDelay = delay
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 12, sim.NetConfig{})
	sent := c.watchProposals(0)
	lastPartial := func() time.Duration {
		for i := len(*sent) - 1; i >= 0; i-- {
			if (*sent)[i].cmds < batch {
				return (*sent)[i].at
			}
		}
		return -time.Hour
	}

	over := 0
	var waited []string
	check := func() {
		en := c.engines[0]
		if en == nil {
			return
		}
		if n := en.inFlight; n > en.cfg.MaxInFlight {
			over = n
		}
		now := c.s.Now().Sub(time.Unix(0, 0))
		switch q := en.queueLen(); {
		case en.inFlight >= window || q == 0:
		case q >= batch:
			waited = append(waited, fmt.Sprintf("%v: a full batch waits with the window open", now))
		case lastPartial()+delay < now:
			waited = append(waited, fmt.Sprintf("%v: a partial batch waits for nothing", now))
		}
	}
	// Checks fall between the submissions' instants, which are on a 0.5 ms
	// grid: at an instant that queued a command, its partial batch is still
	// to leave.
	var tick func()
	tick = func() {
		check()
		c.s.After(250*time.Microsecond, tick)
	}
	c.s.After(125*time.Microsecond, tick)

	// Bursts (size-triggered proposals) over a steady stream of one
	// command every 1.5 ms (partial batches), once the group has a leader.
	t0 := time.Second
	total := 0
	for i := 0; i < 60; i++ {
		at := t0 + 50*time.Millisecond + time.Duration(i/10)*7*time.Millisecond
		c.submit(at, 0, fmt.Sprintf("c%02d", i))
		total++
	}
	for d := t0 + 40*time.Millisecond; d < t0+300*time.Millisecond; d += 1500 * time.Microsecond {
		c.submit(d, 0, fmt.Sprintf("s%v", d))
		total++
	}
	c.s.RunFor(5 * time.Second)

	if over > 0 {
		t.Fatalf("outstanding reached %d, exceeding MaxInFlight=%d", over, window)
	}
	if len(waited) > 0 {
		t.Fatalf("%d checks found a batch waiting, first: %s", len(waited), waited[0])
	}
	prev := -time.Hour
	for _, v := range *sent {
		if v.cmds == batch {
			continue
		}
		if v.at-prev < delay {
			t.Fatalf("partial values at %v and %v: less than BatchDelay %v apart", prev, v.at, delay)
		}
		prev = v.at
	}
	c.requireDelivered(0, total)
	c.checkConsistency()
}

// TestQueueBytesAccounting: queueBytes must track the queued commands
// exactly — never negative while draining, zero once the queue is empty.
func TestQueueBytesAccounting(t *testing.T) {
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 8
		cfg.MaxInFlight = 2
		cfg.CmdSize = func(cmd any) int64 { return int64(len(cmd.(string))) }
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 13, sim.NetConfig{})

	negative := false
	var tick func()
	tick = func() {
		if en := c.engines[0]; en != nil && en.queueBytes < 0 {
			negative = true
		}
		c.s.After(time.Millisecond, tick)
	}
	c.s.After(0, tick)

	// Commands of varying sizes, bursty enough to queue deeply.
	total := 0
	for i := 0; i < 200; i++ {
		cmd := fmt.Sprintf("cmd-%03d-%s", i, strings.Repeat("x", i%7))
		c.submit(40*time.Millisecond, 0, cmd)
		total++
	}
	c.s.RunFor(10 * time.Second)

	if negative {
		t.Fatal("queueBytes went negative while draining")
	}
	en := c.engines[0]
	c.requireDelivered(0, total)
	if en.queueLen() != 0 {
		t.Fatalf("queue not drained: %d commands left", en.queueLen())
	}
	if en.queueBytes != 0 {
		t.Fatalf("queueBytes = %d after drain, want 0", en.queueBytes)
	}
	c.checkConsistency()
}

// TestDeepBacklogDrains is the O(n²) drain regression test: a backlog of
// tens of thousands of queued commands must drain completely, with the
// ring's consumed prefix reclaimed rather than the remainder reallocated
// per batch.
func TestDeepBacklogDrains(t *testing.T) {
	const total = 30000
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 64
		cfg.MaxInFlight = 8
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 14, sim.NetConfig{})

	// One instant, far beyond the window: everything lands in cmdQueue.
	c.s.After(50*time.Millisecond, func() {
		en := c.engines[0]
		for i := 0; i < total; i++ {
			en.Submit(fmt.Sprintf("b%05d", i))
		}
	})
	c.s.RunFor(60 * time.Second)

	c.requireDelivered(0, total)
	en := c.engines[0]
	if en.queueLen() != 0 || en.queueBytes != 0 {
		t.Fatalf("backlog not drained: queueLen=%d queueBytes=%d", en.queueLen(), en.queueBytes)
	}
	// The ring must have been reclaimed, not left holding the whole
	// consumed history.
	if en.qHead != 0 || len(en.cmdQueue) != 0 {
		t.Fatalf("queue storage not reclaimed: qHead=%d len=%d", en.qHead, len(en.cmdQueue))
	}
	// Delivery order is still FIFO end to end.
	for i, got := range c.delivered[0] {
		if want := fmt.Sprintf("b%05d", i); got != want {
			t.Fatalf("position %d: delivered %q, want %q", i, got, want)
		}
	}
}

// TestAdmissionControllerGrades exercises the pure controller: triggers
// fire on either depth or bytes, and release only at half the trigger
// (hysteresis), stepping down through slowdown.
func TestAdmissionControllerGrades(t *testing.T) {
	// The default window (5 in flight × 64 per batch) triggers at 8·W and
	// 32·W queued commands, or that many 128 B commands' worth of bytes.
	want := admissionController{slowCmds: 2560, stopCmds: 10240, slowBytes: 2560 * 128, stopBytes: 10240 * 128}
	if got := newAdmissionController(5 * 64); got != want {
		t.Fatalf("derived triggers %+v, want %+v", got, want)
	}
	a := admissionController{
		slowCmds: 10, stopCmds: 40,
		slowBytes: 1 << 20, stopBytes: 4 << 20,
	}
	steps := []struct {
		cmds  int
		bytes int64
		want  AdmissionState
	}{
		{0, 0, AdmissionClear},
		{9, 0, AdmissionClear},
		{10, 0, AdmissionSlowdown},      // depth trigger
		{9, 0, AdmissionSlowdown},       // above half: hold
		{4, 0, AdmissionClear},          // below half: release
		{0, 1 << 20, AdmissionSlowdown}, // byte trigger alone
		{0, 4 << 20, AdmissionStop},     // escalate on bytes
		{0, 3 << 20, AdmissionStop},     // above half stop: hold
		{0, 1 << 21, AdmissionStop},     // still ≥ half of StopBytes
		{12, 0, AdmissionSlowdown},      // below half stop, above slowdown
		{0, 0, AdmissionClear},
		{41, 0, AdmissionStop}, // clear → stop directly
		{19, 0, AdmissionSlowdown},
		{4, 0, AdmissionClear},
	}
	for i, s := range steps {
		if got := a.update(s.cmds, s.bytes); got != s.want {
			t.Fatalf("step %d (cmds=%d bytes=%d): state %v, want %v", i, s.cmds, s.bytes, got, s.want)
		}
	}
}

// TestAdmissionFiresAndReleases: on a live engine, a burst beyond the
// stop threshold must grade AdmissionStop, and draining the backlog must
// release the grade back to clear. A window of one command (MaxInFlight 1
// × MaxBatchCmds 1) puts the derived stop trigger at 32 queued.
func TestAdmissionFiresAndReleases(t *testing.T) {
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 1
		cfg.MaxInFlight = 1
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 15, sim.NetConfig{})

	var atBurst, end AdmissionState
	c.s.After(50*time.Millisecond, func() {
		en := c.engines[0]
		for i := 0; i < 100; i++ {
			en.Submit(fmt.Sprintf("a%03d", i))
		}
		atBurst = en.AdmissionState()
	})
	c.s.RunFor(20 * time.Second)
	end = c.engines[0].AdmissionState()

	if atBurst != AdmissionStop {
		t.Fatalf("after 100-cmd burst with a stop trigger of 32: state %v, want stop", atBurst)
	}
	if end != AdmissionClear {
		t.Fatalf("after drain: state %v, want clear", end)
	}
	c.requireDelivered(0, 100)
	c.checkConsistency()
}
