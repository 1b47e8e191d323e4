package core

import (
	"context"
	"sync"
	"time"

	"robuststore/internal/env"
)

// Queue is Treplica's asynchronous persistent queue (paper §2): a totally
// ordered collection of objects with an asynchronous Enqueue and a
// blocking Dequeue. Every replica bound to the queue observes the same
// total order of objects, regardless of which replica enqueued them; a
// replica that crashes and rebinds resumes exactly where its durable state
// left off, without missing enqueues made in the meantime.
//
// The queue is built on the same replicated log as the state machine
// abstraction. Its "state" is deliberately per-replica: the replicated
// part is the totally ordered item history, while the dequeue cursor
// (which items this process has consumed) is local and checkpointed with
// the rest of the replica state. Recovery therefore resumes from the last
// checkpoint: enqueues are never missed, and items dequeued after that
// checkpoint are re-delivered (at-least-once consumption — consumers that
// need exactly-once keep their derived state in a state machine instead).
type Queue struct {
	r *Replica

	mu      sync.Mutex
	pending []any // guarded by mu
	signal  chan struct{}
}

// queueMachine is the state machine backing a Queue: its replicated
// transition appends the enqueued object; the not-yet-dequeued suffix is
// part of the checkpointed state so undelivered items survive a crash.
type queueMachine struct {
	q *Queue
}

func (m *queueMachine) Execute(action any) any {
	m.q.push(action)
	return action
}

func (m *queueMachine) Snapshot() (any, int64) {
	m.q.mu.Lock()
	defer m.q.mu.Unlock()
	items := make([]any, len(m.q.pending))
	copy(items, m.q.pending)
	return items, int64(64 + 160*len(items))
}

func (m *queueMachine) Restore(data any) {
	items, ok := data.([]any)
	if !ok {
		return
	}
	m.q.mu.Lock()
	m.q.pending = append([]any(nil), items...)
	m.q.mu.Unlock()
	m.q.wake()
}

// NewQueue builds an asynchronous persistent queue and the replica that
// backs it. Hand the returned Replica to a runtime (it implements
// env.Node) and use the Queue from application goroutines.
func NewQueue(cfg Config) (*Queue, *Replica) {
	q := &Queue{signal: make(chan struct{}, 1)}
	cfg.Machine = func() StateMachine { return &queueMachine{q: q} }
	r := NewReplica(cfg)
	q.r = r
	return q, r
}

func (q *Queue) push(item any) {
	q.mu.Lock()
	q.pending = append(q.pending, item)
	q.mu.Unlock()
	q.wake()
}

func (q *Queue) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// Enqueue appends an object to the queue. It is asynchronous, as in
// Treplica: it returns as soon as the object is submitted for total
// ordering; delivery is observed via Dequeue on every replica. Enqueues
// before the replica has started are dropped.
func (q *Queue) Enqueue(item any) {
	e, ok := q.r.pubEnv.Load().(env.Env)
	if !ok {
		return
	}
	e.Post(func() {
		q.r.Submit(item, nil)
	})
}

// Dequeue blocks until the next object in the total order is available
// locally and returns it. Context cancellation aborts the wait.
func (q *Queue) Dequeue(ctx context.Context) (any, error) {
	for {
		q.mu.Lock()
		if len(q.pending) > 0 {
			item := q.pending[0]
			q.pending = append([]any(nil), q.pending[1:]...)
			q.mu.Unlock()
			return item, nil
		}
		q.mu.Unlock()
		select {
		case <-q.signal:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond): //walltime:live — consumer-goroutine poll, never runs on the sim executor
			// Re-check: a concurrent consumer may have raced the
			// signal.
		}
	}
}

// TryDequeue returns the next object without blocking; ok is false when
// the local queue view is empty.
func (q *Queue) TryDequeue() (item any, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil, false
	}
	item = q.pending[0]
	q.pending = append([]any(nil), q.pending[1:]...)
	return item, true
}

// Len returns the number of locally deliverable objects.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Replica returns the replica backing this queue.
func (q *Queue) Replica() *Replica { return q.r }
