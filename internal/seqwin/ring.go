package seqwin

// ringMin is the capacity of a ring's first array.
const ringMin = 16

// Ring is a sequence of T indexed by K with Window's [Base, End) contract, in
// one circular array whose length is a power of two: index i lives at i mod
// the length. When the span End-Base outgrows the array it doubles, and it
// never shrinks, so a span that rises and falls settles at its high-water
// capacity and then allocates nothing. Every entry outside [Base, End) is
// T's zero value: what the floor passes is zeroed, so that what it pointed
// to is released with it. A write far past End costs the whole gap, so a
// ring suits spans that stay short: entries are written near End and taken
// near Base.
type Ring[K ~int64, T any] struct {
	base, end K
	buf       []T // empty, or a power of two at least end-base long
}

// Base returns the first index the ring holds.
func (r *Ring[K, T]) Base() K { return r.base }

// End returns one past the highest index ever written, or Base if that is
// higher.
func (r *Ring[K, T]) End() K { return r.end }

// pos is i's place in the array.
func (r *Ring[K, T]) pos(i K) int { return int(uint64(i) & uint64(len(r.buf)-1)) }

// At returns the entry at i, or nil if i is outside the ring.
func (r *Ring[K, T]) At(i K) *T {
	if i < r.base || i >= r.end {
		return nil
	}
	return &r.buf[r.pos(i)]
}

// Ensure returns the entry at i for writing, extending the ring to hold it.
// The pointer is good until the ring grows or its floor passes i.
func (r *Ring[K, T]) Ensure(i K) *T {
	if i < r.base {
		panic("seqwin: Ensure below Base")
	}
	if span := int64(i - r.base + 1); span > int64(len(r.buf)) {
		r.grow(span)
	}
	if i >= r.end {
		r.end = i + 1
	}
	return &r.buf[r.pos(i)]
}

// grow moves the entries to an array of at least span, doubling, and places
// each by its index.
func (r *Ring[K, T]) grow(span int64) {
	n := max(len(r.buf), ringMin)
	for int64(n) < span {
		n *= 2
	}
	old := r.buf
	r.buf = make([]T, n)
	if len(old) == 0 {
		return
	}
	mask := uint64(len(old) - 1)
	for i := r.base; i < r.end; i++ {
		r.buf[r.pos(i)] = old[uint64(i)&mask]
	}
}

// Append writes v at End.
func (r *Ring[K, T]) Append(v T) { *r.Ensure(r.end) = v }

// DropBelow raises Base to i, zeroing the entries below. Dropping past End
// leaves an empty ring based at i.
func (r *Ring[K, T]) DropBelow(i K) {
	if i <= r.base {
		return
	}
	r.zero(r.base, min(i, r.end))
	r.base = i
	r.end = max(r.end, i)
}

// Reset empties the ring and bases it at base, keeping its array.
func (r *Ring[K, T]) Reset(base K) {
	r.zero(r.base, r.end)
	r.base, r.end = base, base
}

// zero clears the entries at [from, to), which lie inside the ring.
func (r *Ring[K, T]) zero(from, to K) {
	if from >= to {
		return
	}
	a, b := r.pos(from), r.pos(to)
	if a < b {
		clear(r.buf[a:b])
		return
	}
	clear(r.buf[a:]) // the span wraps, or fills the array (a == b)
	clear(r.buf[:b])
}
