package sim

import "robuststore/internal/env"

// eventKind selects which payload fields of an event are meaningful.
type eventKind uint8

const (
	evGlobal   eventKind = iota // fn runs unconditionally (harness callbacks, disk completions)
	evNode                      // fn runs if node is still in incarnation inc
	evTimer                     // timer.fn, under the evNode rule, while timer is pending and from is its generation
	evDeliver                   // msg from sender from is handed to node, if it is up
	evResource                  // a job completes on the *Resource in msg: fn (may be nil) runs unless it was Reset since generation inc
)

// event is one queue entry, held by value: scheduling allocates nothing
// beyond the queue's own growth, and the loop dispatches on kind instead of
// calling a closure built per event. Every kind's payload fits the fields
// below (an evResource's *Resource rides in msg, pointer-shaped and so
// unboxed; an evTimer's generation rides in from): the heap copies entries on every sift, so a kind does not get a
// field of its own.
type event struct {
	at  int64 // unix nanos; int64 keeps heap comparisons cheap
	seq int64 // schedule order; breaks ties in at, making the order total

	node  *simNode
	inc   int64
	fn    func()
	timer *simTimer
	msg   env.Message
	from  env.NodeID
	kind  eventKind
}

func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// eventQueue is a 4-ary min-heap on (at, seq). The key is a total order, so
// the pop sequence does not depend on the heap's shape. Sifting moves a hole
// rather than swapping: one entry copy per level.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event. The queue must not be empty.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h[n] = event{} // drop the vacated slot's references
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}
