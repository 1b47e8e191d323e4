package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/shard"
)

// The tracer observes the system from outside, at the interfaces the code
// already exposes: the bench hands shard.New a runtime whose nodes get a
// counting, timing env.Env, so every call a node makes into its runtime
// (Send, After, Post, Storage) and every call the runtime makes into a node
// (Start, Receive, timer/post/storage callbacks) crosses a span boundary.
// core and paxos are one layer here: nothing separates them from outside.

type spanKind int

const (
	spanHandle    spanKind = iota // runtime → node: Start, Receive, callbacks
	spanSend                      // node → runtime: Send
	spanStorage                   // node → runtime: Append, AppendBatch, SaveSnapshot
	spanApply                     // node → state machine: Execute
	spanGenerator                 // the bench's own load generator
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"core.handle", "sim.send", "sim.storage", "machine.apply", "bench.generator",
}

// span is one recorded interval. Times are host nanoseconds since the
// trace began; Parent is the index of the span that caused this one (the
// enclosing call), -1 at top level.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req,omitempty"` // generator tick, where the bench knows it
}

// request is one sampled client request on the workload's own clock.
type request struct {
	ID    int64  `json:"id"`
	Kind  string `json:"kind,omitempty"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Err   bool   `json:"err,omitempty"`
}

// maxSpans bounds the spans and requests kept for the trace file; totals
// (self times, counts) cover every span regardless.
const maxSpans = 50000

type openSpan struct {
	kind  spanKind
	start int64
	child int64 // summed duration of direct children
	idx   int   // index in tracer.spans, -1 when not kept
}

// traceTotals is everything the tracer accumulates, as plain numbers so two
// snapshots subtract (per-rung accounting on order_pipeline).
type traceTotals struct {
	SelfNs [nSpanKinds]int64
	Calls  [nSpanKinds]int64
	TopNs  int64 // summed duration of top-level spans

	Msgs, Timers, Posts int64
	Syncs, Records      int64 // Append/AppendBatch calls, records in them
	Snapshots           int64
}

// plus returns a + sign*b, field by field.
func (a traceTotals) plus(b traceTotals, sign int64) traceTotals {
	for k := range a.SelfNs {
		a.SelfNs[k] += sign * b.SelfNs[k]
		a.Calls[k] += sign * b.Calls[k]
	}
	a.TopNs += sign * b.TopNs
	a.Msgs += sign * b.Msgs
	a.Timers += sign * b.Timers
	a.Posts += sign * b.Posts
	a.Syncs += sign * b.Syncs
	a.Records += sign * b.Records
	a.Snapshots += sign * b.Snapshots
	return a
}

func (a traceTotals) sub(b traceTotals) traceTotals { return a.plus(b, -1) }
func (a traceTotals) add(b traceTotals) traceTotals { return a.plus(b, 1) }

// events is every operation nodes originated: the simulator schedules at
// least one event for each.
func (a traceTotals) events() int64 {
	return a.Msgs + a.Timers + a.Posts + a.Syncs + a.Snapshots
}

// tracer records spans and counts. With serial set (the simulator: one
// goroutine runs everything) it keeps a span stack and self times; without
// it (livenet: one goroutine per node) only the atomic counts are kept,
// because there is no single stack to attribute time to.
type tracer struct {
	serial bool
	clock  func() int64

	open   []openSpan
	totals traceTotals
	spans  []span

	msgs, timers, posts, syncs, records, snapshots atomic.Int64

	// syncWaitNs holds Append→done waits on the runtime's clock (virtual
	// time on the simulator), one per Append/AppendBatch call.
	syncWaitNs []int64
}

func newTracer(serial bool) *tracer {
	base := time.Now()
	return &tracer{
		serial: serial,
		clock:  func() int64 { return int64(time.Since(base)) },
	}
}

func (t *tracer) begin(kind spanKind, req int64) {
	if !t.serial {
		return
	}
	now := t.clock()
	idx := -1
	if len(t.spans) < maxSpans {
		parent := -1
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
		}
		idx = len(t.spans)
		t.spans = append(t.spans, span{Name: spanNames[kind], Start: now, Parent: parent, Req: req})
	}
	t.open = append(t.open, openSpan{kind: kind, start: now, idx: idx})
}

func (t *tracer) end() {
	if !t.serial {
		return
	}
	now := t.clock()
	n := len(t.open) - 1
	s := t.open[n]
	t.open = t.open[:n]
	dur := now - s.start
	t.totals.SelfNs[s.kind] += dur - s.child
	t.totals.Calls[s.kind]++
	if n > 0 {
		t.open[n-1].child += dur
	} else {
		t.totals.TopNs += dur
	}
	if s.idx >= 0 {
		t.spans[s.idx].End = now
	}
}

// snapshot returns the totals so far, counts included.
func (t *tracer) snapshot() traceTotals {
	out := t.totals
	out.Msgs = t.msgs.Load()
	out.Timers = t.timers.Load()
	out.Posts = t.posts.Load()
	out.Syncs = t.syncs.Load()
	out.Records = t.records.Load()
	out.Snapshots = t.snapshots.Load()
	return out
}

// --- Wrappers ----------------------------------------------------------

// nodeRuntime is what the bench needs of a node runtime; *sim.Sim and
// *livenet.Cluster both provide it. After and Now are the optional
// capabilities shard.Store looks for on its Runtime, so the wrapper must
// pass them through.
type nodeRuntime interface {
	shard.Runtime
	After(d time.Duration, fn func())
	Now() time.Time
}

// tracedRuntime wraps every node factory so each incarnation runs against
// a traced environment.
type tracedRuntime struct {
	nodeRuntime
	tr *tracer
}

func (r tracedRuntime) AddNode(factory func() env.Node) env.NodeID {
	return r.nodeRuntime.AddNode(func() env.Node {
		return &tracedNode{inner: factory(), tr: r.tr}
	})
}

type tracedNode struct {
	inner env.Node
	tr    *tracer
}

func (n *tracedNode) Start(e env.Env) {
	te := &tracedEnv{Env: e, tr: n.tr}
	te.st = &tracedStorage{Storage: e.Storage(), e: te}
	n.tr.begin(spanHandle, 0)
	n.inner.Start(te)
	n.tr.end()
}

func (n *tracedNode) Receive(from env.NodeID, msg env.Message) {
	n.tr.begin(spanHandle, 0)
	n.inner.Receive(from, msg)
	n.tr.end()
}

type tracedEnv struct {
	env.Env
	tr *tracer
	st *tracedStorage
}

// handle wraps a callback the runtime will run on the node's executor.
func (e *tracedEnv) handle(fn func()) func() {
	return func() {
		e.tr.begin(spanHandle, 0)
		fn()
		e.tr.end()
	}
}

func (e *tracedEnv) After(d time.Duration, fn func()) env.Timer {
	e.tr.timers.Add(1)
	return e.Env.After(d, e.handle(fn))
}

func (e *tracedEnv) Post(fn func()) {
	e.tr.posts.Add(1)
	e.Env.Post(e.handle(fn))
}

func (e *tracedEnv) Send(to env.NodeID, msg env.Message) {
	e.tr.msgs.Add(1)
	e.tr.begin(spanSend, 0)
	e.Env.Send(to, msg)
	e.tr.end()
}

func (e *tracedEnv) Storage() env.Storage { return e.st }

type tracedStorage struct {
	env.Storage
	e *tracedEnv
}

// durable wraps an append's completion: it records how long the node
// waited for durability on the runtime's clock, then runs the node's
// continuation as a handle span.
func (s *tracedStorage) durable(done func(error)) func(error) {
	tr := s.e.tr
	asked := s.e.Now()
	return func(err error) {
		if tr.serial {
			tr.syncWaitNs = append(tr.syncWaitNs, int64(s.e.Now().Sub(asked)))
		}
		if done != nil {
			tr.begin(spanHandle, 0)
			done(err)
			tr.end()
		}
	}
}

func (s *tracedStorage) Append(rec env.Record, done func(error)) {
	tr := s.e.tr
	tr.syncs.Add(1)
	tr.records.Add(1)
	tr.begin(spanStorage, 0)
	s.Storage.Append(rec, s.durable(done))
	tr.end()
}

func (s *tracedStorage) AppendBatch(recs []env.Record, done func(error)) {
	tr := s.e.tr
	tr.syncs.Add(1)
	tr.records.Add(int64(len(recs)))
	tr.begin(spanStorage, 0)
	s.Storage.AppendBatch(recs, s.durable(done))
	tr.end()
}

func (s *tracedStorage) SaveSnapshot(name string, snap env.Snapshot, done func(error)) {
	tr := s.e.tr
	tr.snapshots.Add(1)
	tr.begin(spanStorage, 0)
	s.Storage.SaveSnapshot(name, snap, func(err error) {
		if done != nil {
			tr.begin(spanHandle, 0)
			done(err)
			tr.end()
		}
	})
	tr.end()
}

func (s *tracedStorage) ReadRecords(done func([]env.Record, error)) {
	tr := s.e.tr
	s.Storage.ReadRecords(func(recs []env.Record, err error) {
		tr.begin(spanHandle, 0)
		done(recs, err)
		tr.end()
	})
}

func (s *tracedStorage) LoadSnapshot(name string, done func(env.Snapshot, bool)) {
	tr := s.e.tr
	s.Storage.LoadSnapshot(name, func(snap env.Snapshot, ok bool) {
		tr.begin(spanHandle, 0)
		done(snap, ok)
		tr.end()
	})
}

// tracedMachine times Execute. It hides any optional capability of the
// inner machine, so it is only used around machines that have none.
type tracedMachine struct {
	core.StateMachine
	tr *tracer
}

func (m *tracedMachine) Execute(action any) any {
	m.tr.begin(spanApply, 0)
	out := m.StateMachine.Execute(action)
	m.tr.end()
	return out
}

// --- Trace file --------------------------------------------------------

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Clocks   string             `json:"clocks"`
	Spans    []span             `json:"spans,omitempty"`
	Requests []request          `json:"requests,omitempty"`
	Samples  []map[string]int64 `json:"samples,omitempty"`
	Layer    map[string]float64 `json:"per_layer"`
}

// outDir is where trace files go, relative to the directory the benchmark
// runs from (the repository root). The smoke test points it elsewhere.
var outDir = "bench/out"

func writeTrace(f traceFile) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(outDir, "trace-"+f.Workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
