package sim

import "robuststore/internal/env"

// key is the order everything runs in: virtual time, then schedule order.
// Events, armed timers and a resource's queued jobs are all stamped with one
// (Sim.stamp), so the order is total and does not depend on which of the
// loop's structures holds an entry.
type key struct {
	at  int64 // unix nanos; int64 keeps heap comparisons cheap
	seq int64 // schedule order; breaks ties in at
}

func (k key) before(o key) bool {
	return k.at < o.at || (k.at == o.at && k.seq < o.seq)
}

// eventKind selects which payload fields of an event are meaningful.
type eventKind uint8

const (
	evGlobal   eventKind = iota // fn runs unconditionally (harness callbacks, disk completions)
	evNode                      // fn runs if node is still in incarnation inc
	evDeliver                   // msg from sender from is handed to node, if it is up
	evResource                  // the head job of worker from of the *Resource in msg completes, unless it was Reset since generation inc
)

// event is one queue entry, held by value: scheduling allocates nothing
// beyond the queue's own growth, and the loop dispatches on kind instead of
// calling a closure built per event. Every kind's payload fits the fields
// below (an evResource's *Resource rides in msg, pointer-shaped and so
// unboxed, and its worker in from): the heap copies entries on every sift,
// so a kind does not get a field of its own. Timers are not events: an armed
// one is an entry of the timerHeap.
type event struct {
	key

	node *simNode
	inc  int64
	fn   func()
	msg  env.Message
	from env.NodeID
	kind eventKind
}

// eventQueue is a 4-ary min-heap on the key. The key is a total order, so
// the pop sequence does not depend on the heap's shape. Sifting moves a hole
// rather than swapping: one entry copy per level.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p].key) {
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
			if h[j].before(h[m].key) {
				m = j
			}
		}
		if !h[m].before(e.key) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = e
	return top
}

// timerHeap is a 4-ary min-heap of the armed timers on the same key. Each
// timer knows its place, so a Reset re-keys its entry where it lies and a Stop
// takes it out: the heap holds one entry per timer that will fire and none
// for any other.
type timerHeap []*simTimer

// up sifts t towards the root from the hole at i and puts it down.
func (h timerHeap) up(i int, t *simTimer) {
	for i > 0 {
		p := (i - 1) / 4
		if !t.before(h[p].key) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = t
	t.pos = int32(i)
}

// down sifts t towards the leaves from the hole at i and puts it down.
func (h timerHeap) down(i int, t *simTimer) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h[j].before(h[m].key) {
				m = j
			}
		}
		if !h[m].before(t.key) {
			break
		}
		h[i] = h[m]
		h[i].pos = int32(i)
		i = m
	}
	h[i] = t
	t.pos = int32(i)
}

// place puts t where its key belongs, from the hole at i.
func (h timerHeap) place(i int, t *simTimer) {
	if i > 0 && t.before(h[(i-1)/4].key) {
		h.up(i, t)
	} else {
		h.down(i, t)
	}
}

// arm enters t under the key it was just given, or moves its entry there.
func (h *timerHeap) arm(t *simTimer) {
	if t.pos < 0 {
		*h = append(*h, t)
		h.up(len(*h)-1, t)
		return
	}
	h.place(int(t.pos), t)
}

// remove takes t's entry out. t must be armed.
func (h *timerHeap) remove(t *simTimer) {
	old := *h
	i, n := int(t.pos), len(old)-1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	t.pos = -1
	if i < n {
		old[:n].place(i, last)
	}
}
