package tpcw

import (
	"iter"
	"slices"
)

// This file implements the paged copy-on-write table behind the store's
// entity tables. Entity IDs are dense positive integers, so a table is a
// directory of fixed-size pages indexed by ID. Pages are shared between a
// table, the snapshots frozen from it and the tables that adopted those
// snapshots; each table holds an owner token, and a write to a page that
// carries another token copies the page first. Freezing and adopting
// therefore copy only the directory — O(pages), not O(rows).

// pageBits sets the page size (256 slots). Larger pages mean shorter
// directories but bigger first-touch copies after a snapshot, and more of
// each page duplicated once stores diverge. Measured on the bench's
// tpcw_sharded_txn workload (16 stores) the choice hardly matters: 64 / 256 /
// 1024 / 4096 slots give 51.65 / 51.59 / 51.56 / 51.56 allocations and
// 5971 / 5990 / 5968 / 5941 B per action, 102 / 106 / 109 / 113 MB live.
const (
	pageBits = 8
	pageSize = 1 << pageBits
)

// owner is a table's write token: a page may be written in place only by
// the table whose token it carries. It must not be zero-size — distinct
// zero-size allocations may share an address.
type owner struct{ _ byte }

// page is one fixed-size run of slots. used is the occupancy bitmap; a
// vacant slot holds V's zero value, so equal contents mean equal pages.
type page[V any] struct {
	owner *owner
	used  [pageSize / 64]uint64
	vals  [pageSize]V
}

// table maps dense non-negative IDs to values. The zero value is an empty
// table. The directory is private to the table. Pages are not released when
// they empty: IDs are handed out in increasing order, so the page at the
// frontier would be dropped and rebuilt as its rows come and go, and the
// only rows the store deletes one by one — consumed carts — each leave
// behind an order several times the size of the slot they vacate.
type table[K ~int32, V any] struct {
	pages []*page[V]
	own   *owner
	n     int
}

// frozen is an immutable capture of a table: the checkpoint payload form.
// It has no write methods; the only way back to a writable table is adopt.
type frozen[K ~int32, V any] struct {
	pages []*page[V]
	n     int
}

// split locates k: its page in the directory and its slot on the page. A
// negative k lands beyond any directory.
func split[K ~int32](k K) (pi int, i uint32) {
	return int(uint32(k) >> pageBits), uint32(k) & (pageSize - 1)
}

func (p *page[V]) has(i uint32) bool { return p.used[i>>6]&(1<<(i&63)) != 0 }

func (t *table[K, V]) len() int { return t.n }

// get returns the value stored under k. Any k may be asked for, including
// IDs a client made up.
func (t *table[K, V]) get(k K) (v V, ok bool) {
	pi, i := split(k)
	if pi >= len(t.pages) {
		return v, false
	}
	if p := t.pages[pi]; p != nil && p.has(i) {
		return p.vals[i], true
	}
	return v, false
}

func (t *table[K, V]) has(k K) bool {
	_, ok := t.get(k)
	return ok
}

// writable returns page pi for writing in place, copying it first if this
// table does not own it.
func (t *table[K, V]) writable(pi int) *page[V] {
	if t.own == nil {
		t.own = new(owner)
	}
	p := t.pages[pi]
	switch {
	case p == nil:
		p = &page[V]{owner: t.own}
	case p.owner != t.own:
		cp := *p
		cp.owner = t.own
		p = &cp
	default:
		return p
	}
	t.pages[pi] = p
	return p
}

// set stores v under k. IDs are assigned by the store, so a negative k is a
// bug, not input.
func (t *table[K, V]) set(k K, v V) {
	if k < 0 {
		panic("tpcw: negative table key")
	}
	pi, i := split(k)
	for pi >= len(t.pages) {
		t.pages = append(t.pages, nil)
	}
	p := t.writable(pi)
	if !p.has(i) {
		p.used[i>>6] |= 1 << (i & 63)
		t.n++
	}
	p.vals[i] = v
}

// delete removes k and reports whether it was present.
func (t *table[K, V]) delete(k K) bool {
	if !t.has(k) {
		return false
	}
	pi, i := split(k)
	p := t.writable(pi)
	p.used[i>>6] &^= 1 << (i & 63)
	t.n--
	var zero V
	p.vals[i] = zero
	return true
}

// all iterates the rows in ascending ID order. The loop body may set or
// delete the row it was handed (DropOwned does); it must not otherwise
// write to the table.
func (t *table[K, V]) all() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for pi := 0; pi < len(t.pages); pi++ {
			for i := uint32(0); i < pageSize && t.pages[pi] != nil; i++ {
				// Read the page anew on every turn: a write from the body
				// may have copied it.
				if p := t.pages[pi]; p.has(i) && !yield(K(pi<<pageBits)|K(i), p.vals[i]) {
					return
				}
			}
		}
	}
}

// freeze captures the table's current contents. The table takes a fresh
// owner token, so every page it shares with the capture is copied before
// its next write: the capture never observes a later write.
func (t *table[K, V]) freeze() frozen[K, V] {
	t.own = new(owner)
	return frozen[K, V]{pages: slices.Clone(t.pages), n: t.n}
}

// adopt replaces the table's contents with f's. The capture stays intact
// and may be adopted by any number of tables; each copies the pages it
// writes.
func (t *table[K, V]) adopt(f frozen[K, V]) {
	*t = table[K, V]{pages: slices.Clone(f.pages), own: new(owner), n: f.n}
}
