package sim

import "time"

// Resource models a serially shared resource such as a replica's CPU: a
// FIFO queue of jobs, each holding the resource for its service time. The
// web tier uses one Resource per replica to model Tomcat's request
// processing on the single-Xeon nodes of §5.1; queueing delay under load is
// what produces the paper's WIRT curves.
type Resource struct {
	sim     *Sim
	workers int
	busy    []time.Time // per-worker horizon
	queued  int
	gen     int64 // bumped by Reset to orphan pending jobs
}

// NewResource creates a resource with the given parallelism (e.g. CPU
// cores or a worker pool size). workers must be >= 1.
func NewResource(s *Sim, workers int) *Resource {
	if workers < 1 {
		workers = 1
	}
	return &Resource{sim: s, workers: workers, busy: make([]time.Time, workers)}
}

// Acquire enqueues a job that needs the resource for d and calls done when
// it completes. Jobs are served FIFO by the first free worker.
func (r *Resource) Acquire(d time.Duration, done func()) {
	// Pick the worker that frees up first.
	best := 0
	for i := 1; i < r.workers; i++ {
		if r.busy[i].Before(r.busy[best]) {
			best = i
		}
	}
	start := r.sim.now
	if r.busy[best].After(start) {
		start = r.busy[best]
	}
	end := start.Add(d)
	r.busy[best] = end
	r.queued++
	r.sim.schedule(end, event{kind: evResource, msg: r, inc: r.gen, fn: done})
}

// complete finishes a job admitted in generation gen.
func (r *Resource) complete(gen int64, done func()) {
	if r.gen != gen {
		return // orphaned by Reset
	}
	r.queued--
	if done != nil {
		done()
	}
}

// QueueLen returns the number of jobs admitted but not yet completed.
func (r *Resource) QueueLen() int { return r.queued }

// Reset drops all queued work (completion callbacks never fire) and frees
// the resource immediately. Used when the owning server crashes.
func (r *Resource) Reset() {
	r.gen++
	r.queued = 0
	for i := range r.busy {
		r.busy[i] = time.Time{}
	}
}
