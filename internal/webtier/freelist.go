package webtier

// freeList recycles records of one type, so an interaction in steady state
// allocates none: get hands out a released record (or a new one), put wipes
// a record and takes it back. A list is confined to the simulator's loop and
// bounded by the most records ever in use at once.
//
// The tier keeps four: the proxy's outReq and each server incarnation's
// request, released by their owner when the interaction ends, and the
// cluster's two lists of wire records, reqMsg and respMsg, which change hands.
// The rule for those: a message travels as a pointer to a record the sender
// took from the list, filled and sent, keeping no pointer; the simulator
// delivers a message at most once; the receiver copies the record out by
// value and puts it back before handling it — handling may send, and must
// read the copy, never the record. So the receiver is the only releaser, and a
// message that is never delivered (blocked link, loss, a dead or crashed
// receiver) is simply garbage: its record never comes back.
type freeList[T any] struct {
	items []*T

	// idle returns what a released record holds while on the list. Nil
	// means the zero value, so an idle record pins nothing its last life
	// referenced; a type that keeps something across lives — continuations
	// bound to the record's address, its timer — returns that and nothing
	// else.
	idle func(r *T) T
}

func (l *freeList[T]) get() *T {
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	r := l.items[n-1]
	l.items = l.items[:n-1]
	return r
}

func (l *freeList[T]) put(r *T) {
	var idle T
	if l.idle != nil {
		idle = l.idle(r)
	}
	*r = idle
	l.items = append(l.items, r)
}
