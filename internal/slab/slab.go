// Package slab hands out records from append-only arrays, so a layer that
// builds many small records — a consensus engine's votes and messages, a
// store's rows — pays one allocation per array instead of one per record.
//
// A slab never hands a record out twice and never takes an array back: the
// collector frees an array whole once no record in it is reachable. So a
// record carved from a slab may be shared under the same rule as one
// allocated on its own: its builder fills it in, and nothing writes to it
// once it is shared. The price is that one reachable record keeps its whole
// array alive, so a slab suits records that live about as long as their
// neighbours, not ones replaced while the rest live on.
//
// A slab belongs to one owner — an engine incarnation, a store — and is used
// by that owner's executor only. It is never copied: a copy would carve the
// records the original carves next.
package slab

import "unsafe"

// Bytes is the size of every array, whatever its records: 511 votes of 32 B,
// 255 values of 64 B or 102 customer rows of 160 B. A few live records pin a whole array, so an
// array is sized by what it costs to pin, not by how many records it holds.
const Bytes = 16 << 10

// Slab carves records of type T. The zero value is an empty slab; it takes
// its first array on the first carve.
type Slab[T any] struct {
	buf []T // the current array; its length is what was handed out
}

// Carve returns n fresh zero records, capped at n so an append to them
// cannot reach a neighbour's. A run longer than an array gets a slice of its
// own.
func (s *Slab[T]) Carve(n int) []T {
	i := len(s.buf)
	if i+n > cap(s.buf) {
		// An array holds what fits in Bytes beside the word the runtime
		// keeps in front of a large object with pointers: a full 16 KiB of
		// records would take the next size class, 18 KiB.
		per := (Bytes - 8) / int(unsafe.Sizeof(*new(T)))
		if n > per {
			return make([]T, n)
		}
		s.buf, i = make([]T, 0, per), 0
	}
	s.buf = s.buf[:i+n]
	return s.buf[i : i+n : i+n]
}

// Next returns one fresh zero record.
func (s *Slab[T]) Next() *T { return &s.Carve(1)[0] }
