// Package seqwin holds a dense sequence indexed by number as a window
// [Base, End): entries are written at the top and dropped from the bottom.
// Two layouts serve two kinds of traffic.
//
// Window is a directory of fixed-size chunks, allocated when first written
// and released whole when the window's floor passes them: writing costs no
// rehash and no regrowth copy, dropping a prefix costs no copy of the rest,
// and a walk is in index order by construction. It serves long spans with bulk drops — the Paxos instance log, a
// WAL's records, a proposer's numbered values, a restarted replica's
// buffered deliveries. The layout is the paged table's
// (internal/tpcw/table.go) without the copy-on-write: there the directory
// is shared between snapshots, here one owner writes at the top and drops at
// the bottom.
//
// Ring is one circular array that keeps its capacity. It serves short spans
// that rise and fall — the completions a replica awaits, a worker's job
// backlog — where a window would allocate and release a chunk at every turn.
package seqwin

import "iter"

// chunkBits sets the chunk length (256 entries), as tpcw's pageBits does:
// with it a chunk of 8-byte entries fills a 2 KB size class exactly, and a
// chunk of 176-byte log slots is six 8 KB spans.
const (
	chunkBits = 8
	chunkLen  = 1 << chunkBits
	chunkMask = chunkLen - 1
)

// Window is a sequence of T indexed by K. The zero value is an empty window
// based at 0. An entry that was never written holds T's zero value, and a
// chunk that was never written is not allocated, so a write far past End
// costs one chunk and directory slots, not the gap.
type Window[K ~int64, T any] struct {
	base, end K
	// chunks[n] holds the indices of chunk number base>>chunkBits + n; nil
	// where nothing was written. It covers [base, end), possibly more.
	chunks []*[chunkLen]T
}

// Base returns the first index the window holds.
func (w *Window[K, T]) Base() K { return w.base }

// End returns one past the highest index ever written, or Base if that is
// higher.
func (w *Window[K, T]) End() K { return w.end }

// slot locates i: its chunk in the directory and its place in the chunk.
// i must not be below Base.
func (w *Window[K, T]) slot(i K) (n int, at int) {
	return int(i>>chunkBits - w.base>>chunkBits), int(i & chunkMask)
}

// At returns the entry at i, or nil if i is outside the window or in a chunk
// that was never written.
func (w *Window[K, T]) At(i K) *T {
	if i < w.base || i >= w.end {
		return nil
	}
	n, at := w.slot(i)
	if c := w.chunks[n]; c != nil {
		return &c[at]
	}
	return nil
}

// Ensure returns the entry at i for writing, extending the window to hold
// it. The pointer is good until the window's floor passes i.
func (w *Window[K, T]) Ensure(i K) *T {
	if i < w.base {
		panic("seqwin: Ensure below Base")
	}
	n, at := w.slot(i)
	if n >= len(w.chunks) {
		if n >= cap(w.chunks) {
			// Doubling by hand: append grows large slices by a quarter.
			grown := make([]*[chunkLen]T, len(w.chunks), max(n+1, 2*cap(w.chunks)))
			copy(grown, w.chunks)
			w.chunks = grown
		}
		w.chunks = w.chunks[:n+1]
	}
	c := w.chunks[n]
	if c == nil {
		c = new([chunkLen]T)
		w.chunks[n] = c
	}
	if i >= w.end {
		w.end = i + 1
	}
	return &c[at]
}

// Append writes v at End.
func (w *Window[K, T]) Append(v T) { *w.Ensure(w.end) = v }

// DropBelow raises Base to i, forgetting the entries below. Chunks wholly
// below i are released; the dropped entries of the chunk i falls in are
// zeroed, so that what they pointed to is released with them. Dropping past
// End leaves an empty window based at i.
func (w *Window[K, T]) DropBelow(i K) {
	if i <= w.base {
		return
	}
	n, at := w.slot(i)
	from := 0
	if n == 0 {
		from = int(w.base & chunkMask)
	}
	n = min(n, len(w.chunks))
	kept := copy(w.chunks, w.chunks[n:])
	clear(w.chunks[kept:])
	w.chunks = w.chunks[:kept]
	if kept > 0 && w.chunks[0] != nil {
		clear(w.chunks[0][from:at])
	}
	w.base = i
	w.end = max(w.end, i)
}

// Reset empties the window and bases it at base.
func (w *Window[K, T]) Reset(base K) {
	clear(w.chunks)
	w.chunks = w.chunks[:0]
	w.base, w.end = base, base
}

// From walks the window upwards from i (or from Base, if that is higher),
// skipping chunks that were never written. Entries may be written through
// the pointers; the window must not be extended or dropped during the walk.
func (w *Window[K, T]) From(i K) iter.Seq2[K, *T] {
	return func(yield func(K, *T) bool) {
		for i := max(i, w.base); i < w.end; {
			n, _ := w.slot(i)
			next := min((i|chunkMask)+1, w.end)
			if c := w.chunks[n]; c != nil {
				for ; i < next; i++ {
					if !yield(i, &c[i&chunkMask]) {
						return
					}
				}
			}
			i = next
		}
	}
}
