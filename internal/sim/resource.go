package sim

import (
	"time"

	"robuststore/internal/env"
	"robuststore/internal/seqwin"
)

// Resource models a serially shared resource such as a replica's CPU: a
// FIFO queue of jobs, each holding the resource for its service time. The
// web tier uses one Resource per replica to model Tomcat's request
// processing on the single-Xeon nodes of §5.1; queueing delay under load is
// what produces the paper's WIRT curves.
//
// A job's worker and completion time are fixed when it is admitted, and a
// worker's jobs complete in the order they were admitted. So each worker keeps
// its jobs in its own FIFO and only the first is in the event heap, under the
// key the job was stamped with at Acquire: a backlog of thousands of jobs is
// one heap entry per worker, and the completions run exactly when, and in
// the order, they would have with every job in the heap.
type Resource struct {
	sim     *Sim
	workers []worker
	queued  int
	gen     int64 // bumped by Reset to orphan the heads in the event heap
}

type worker struct {
	busy time.Time               // horizon: when the last job admitted completes
	jobs seqwin.Ring[int64, job] // admitted and not completed; the one at Base is in the event heap
}

type job struct {
	key
	done func()
}

// NewResource creates a resource with the given parallelism (e.g. CPU
// cores or a worker pool size). workers must be >= 1.
func NewResource(s *Sim, workers int) *Resource {
	return &Resource{sim: s, workers: make([]worker, max(workers, 1))}
}

// Acquire enqueues a job that needs the resource for d and calls done when
// it completes. Jobs are served FIFO by the first free worker.
func (r *Resource) Acquire(d time.Duration, done func()) {
	// Pick the worker that frees up first.
	best := 0
	for i := 1; i < len(r.workers); i++ {
		if r.workers[i].busy.Before(r.workers[best].busy) {
			best = i
		}
	}
	w := &r.workers[best]
	start := r.sim.now
	if w.busy.After(start) {
		start = w.busy
	}
	w.busy = start.Add(d)
	r.queued++
	w.jobs.Append(job{key: r.sim.stamp(w.busy), done: done})
	if w.jobs.End()-w.jobs.Base() == 1 {
		r.scheduleHead(best)
	}
}

// scheduleHead puts worker wi's first job into the event heap.
func (r *Resource) scheduleHead(wi int) {
	w := &r.workers[wi]
	r.sim.queue.push(event{key: w.jobs.At(w.jobs.Base()).key, kind: evResource, msg: r, inc: r.gen, from: env.NodeID(wi)})
}

// complete finishes the first job of worker wi, scheduled in generation gen.
func (r *Resource) complete(wi int, gen int64) {
	if r.gen != gen {
		return // the head of a queue that Reset dropped
	}
	w := &r.workers[wi]
	head := w.jobs.Base()
	done := w.jobs.At(head).done
	w.jobs.DropBelow(head + 1)
	if w.jobs.Base() < w.jobs.End() {
		r.scheduleHead(wi)
	}
	r.queued--
	if done != nil {
		done()
	}
}

// QueueLen returns the number of jobs admitted but not yet completed.
func (r *Resource) QueueLen() int { return r.queued }

// Reset drops all queued work (completion callbacks never fire) and frees
// the resource immediately. The heads already in the event heap are
// discarded when they surface. No runtime calls it yet: a restarted web
// server builds a fresh Resource instead.
func (r *Resource) Reset() {
	r.gen++
	r.queued = 0
	for i := range r.workers {
		w := &r.workers[i]
		w.busy = time.Time{}
		w.jobs.Reset(0)
	}
}
