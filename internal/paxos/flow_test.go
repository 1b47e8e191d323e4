package paxos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"robuststore/internal/sim"
)

// Proposer flow-control tests: FIFO ordering across the batch→queue
// boundary, queue-byte accounting, the in-flight cap as a real bound on
// every proposal path, deep-backlog draining (the O(n²) drain
// regression), and the admission controller's grades.

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

// TestInFlightCapUniform: no proposal path — size-triggered, timer-
// triggered, or queue drain — may exceed MaxInFlight outstanding values.
// The pre-fix engine's timer flush bypassed the check and overshot the
// window.
func TestInFlightCapUniform(t *testing.T) {
	testTune = func(cfg *Config) {
		cfg.MaxBatchCmds = 4
		cfg.MaxInFlight = 2
	}
	defer func() { testTune = nil }()
	c := newCluster(t, 3, false, 12, sim.NetConfig{})

	over := 0
	check := func() {
		if en := c.engines[0]; en != nil {
			if n := en.inFlight; n > en.cfg.MaxInFlight {
				over = n
			}
		}
	}
	var tick func()
	tick = func() {
		check()
		c.s.After(time.Millisecond, tick)
	}
	c.s.After(0, tick)

	// Mixed arrival pattern: bursts (size-triggered flushes) and
	// stragglers (timer flushes) interleaved.
	for i := 0; i < 60; i++ {
		at := 50*time.Millisecond + time.Duration(i/10)*7*time.Millisecond
		c.submit(at, 0, fmt.Sprintf("c%02d", i))
	}
	c.s.RunFor(5 * time.Second)

	if over > 0 {
		t.Fatalf("outstanding reached %d, exceeding MaxInFlight=2", over)
	}
	c.requireDelivered(0, 60)
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
