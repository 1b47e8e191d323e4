package paxos

// slabLen is how many records one slab array holds.
const slabLen = 256

// slabCmds is the largest batch whose command slice is carved from a slab;
// a larger one gets a slice of its own, so a full 64-command batch wastes
// no slab tail.
const slabCmds = 8

// slab hands out the records an engine builds per decision or per heartbeat —
// votes, announcements, accepts, forwards, pings, small command slices — from
// arrays of slabLen, taking a fresh array when one is full. It never hands out
// a record twice and never takes an array back: the collector frees an array
// whole once no record in it is reachable. So the sharing rule (see Value)
// holds as it does for a record of its own: nothing writes to a record after
// it is built. A slab belongs to one engine incarnation and is used on the
// node's executor only.
type slab[T any] struct {
	buf []T // the current array; its length is what was handed out
}

// carve returns n fresh zero records, n ≤ slabLen, capped at n so an append
// to them cannot reach a neighbour's.
func (s *slab[T]) carve(n int) []T {
	i := len(s.buf)
	if i+n > cap(s.buf) {
		s.buf, i = make([]T, 0, slabLen), 0
	}
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// next returns one fresh zero record.
func (s *slab[T]) next() *T { return &s.carve(1)[0] }
