package tpcw

import (
	"iter"
	"math/bits"
	"slices"
)

// This file implements the paged copy-on-write table behind the store's
// entity tables. Entity IDs are dense positive integers, so a table is a
// directory of fixed-size pages indexed by ID. Pages are shared between a
// table, the snapshots frozen from it and the tables that adopted those
// snapshots; each table holds an owner token, and a write to a page that
// carries another token copies the page first. Freezing and adopting
// therefore copy only the directory — O(pages), not O(rows).
//
// The table is also the one record of what was written. set and delete are
// the only ways a row changes, and each sets the slot's bit in its page's
// dirty bitmap. A slot is clean when it holds what it held when the table
// was last frozen, adopted or drained by takeDelta — whichever came last. A
// page that does not carry the table's token has not been written since the
// last freeze or adopt (the first write would have copied it), so all of its
// slots are clean whatever its bitmap says: the bits on a shared page belong
// to the table that wrote it, and the copy writable makes starts with none.
// takeDelta clears the bits where they are. Rotating the token would clean
// the table as well, but every written page (2 KB and up) would then be
// copied again on its next write, once per checkpoint interval.
//
// The same bits say which values are the table's own. A slot that is dirty on
// a page the table owns was stored since the last freeze, adopt or takeDelta,
// so no capture, delta, clone or sibling table can hold its value — unless a
// migration export handed it out or an import took it in, which the lent
// bitmap records. edit writes such a value in place and copies any other.

// pageBits sets the page size (256 slots). Larger pages mean shorter
// directories but bigger first-touch copies after a snapshot, and more of
// each page duplicated once stores diverge. Measured on the bench's
// tpcw_sharded_txn workload (16 stores, seed 1, one run each on a 2-vCPU
// host, October 2026, with heads edited in place) the choice hardly
// matters: 64 / 256 / 1024 / 4096 slots give 16.25 / 16.20 / 16.17 / 16.16
// allocations and 1449 / 1462 / 1429 / 1421 B per action, 80.1 / 83.1 /
// 85.8 / 90.2 MB live.
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
// dirty marks the slots the owner wrote since it was last clean, and lent
// those of them whose value a holder outside the table shares (lend); nothing
// outside this file touches either.
type page[V any] struct {
	owner *owner
	used  [pageSize / 64]uint64
	dirty [pageSize / 64]uint64
	lent  [pageSize / 64]uint64
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

// row is one key and the value stored under it.
type row[K ~int32, V any] struct {
	k K
	v V
}

// delta is the incremental-checkpoint payload form: the slots of a table that
// were not clean when takeDelta looked, in ascending ID order — rows holds
// those with a value (upserts), dead those without (tombstones).
type delta[K ~int32, V any] struct {
	rows []row[K, V]
	dead []K
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
		cp.dirty = [pageSize / 64]uint64{}
		cp.lent = [pageSize / 64]uint64{}
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
	p.dirty[i>>6] |= 1 << (i & 63)
	p.lent[i>>6] &^= 1 << (i & 63)
	p.vals[i] = v
}

// mine reports whether the value stored under k is the table's alone: the
// slot is dirty on a page the table owns and not lent.
func (t *table[K, V]) mine(k K) bool {
	pi, i := split(k)
	if pi >= len(t.pages) {
		return false
	}
	p := t.pages[pi]
	return p != nil && p.owner == t.own && (p.dirty[i>>6]&^p.lent[i>>6])&(1<<(i&63)) != 0
}

// edit returns the value stored under k for the caller to write through. A
// value that is the table's alone (mine) comes back as it is; any other is
// copied by cp and the copy stored first, so the captures, deltas, tables
// and payloads that hold the original never see the write. Only a table of
// pointers to rows has a use for it.
func (t *table[K, V]) edit(k K, cp func(V) V) (v V, ok bool) {
	v, ok = t.get(k)
	if !ok || t.mine(k) {
		return v, ok
	}
	v = cp(v)
	t.set(k, v)
	return v, true
}

// lend records that a holder outside the table shares the value stored under
// k — a migration payload it was exported to or imported from — so edit
// copies it. The mark lasts until the slot is next written; a slot that is
// not the table's alone needs none.
func (t *table[K, V]) lend(k K) {
	if t.mine(k) {
		pi, i := split(k)
		t.pages[pi].lent[i>>6] |= 1 << (i & 63)
	}
}

// delete removes k and reports whether it was present.
func (t *table[K, V]) delete(k K) bool {
	if !t.has(k) {
		return false
	}
	pi, i := split(k)
	p := t.writable(pi)
	p.used[i>>6] &^= 1 << (i & 63)
	p.dirty[i>>6] |= 1 << (i & 63)
	t.n--
	var zero V
	p.vals[i] = zero
	return true
}

// all iterates the rows in ascending ID order. The loop body may set,
// delete or lend the row it was handed (DropOwned and ExportOwned do); it
// must not otherwise write to the table.
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

// takeDelta returns the slots written since the table was last clean and
// leaves the table clean. Only pages carrying the table's token can hold any.
func (t *table[K, V]) takeDelta() (d delta[K, V]) {
	for pi, p := range t.pages {
		if p == nil || p.owner != t.own {
			continue
		}
		for w, word := range p.dirty {
			for ; word != 0; word &= word - 1 {
				i := uint32(w<<6 | bits.TrailingZeros64(word))
				k := K(pi<<pageBits) | K(i)
				if p.has(i) {
					d.rows = append(d.rows, row[K, V]{k, p.vals[i]})
				} else {
					d.dead = append(d.dead, k)
				}
			}
			p.dirty[w] = 0
		}
	}
	return d
}

// applyDelta is takeDelta's inverse: merged into a table that holds what the
// source held when its delta started, d brings it to what the source held
// when d was taken. The slots it writes end clean — they now hold
// checkpointed state, not a change to it.
func (t *table[K, V]) applyDelta(d delta[K, V]) {
	for _, r := range d.rows {
		t.set(r.k, r.v)
		t.unmark(r.k)
	}
	for _, k := range d.dead {
		if t.delete(k) {
			t.unmark(k)
		}
	}
}

// unmark clears the dirty bit of a slot this table has just written.
func (t *table[K, V]) unmark(k K) {
	pi, i := split(k)
	t.pages[pi].dirty[i>>6] &^= 1 << (i & 63)
}

// freeze captures the table's current contents. The table takes a fresh
// owner token, so every page it shares with the capture is copied before
// its next write: the capture never observes a later write. It also leaves
// the table clean, since it now owns no page.
func (t *table[K, V]) freeze() frozen[K, V] {
	t.own = new(owner)
	return frozen[K, V]{pages: slices.Clone(t.pages), n: t.n}
}

// adopt replaces the table's contents with f's, clean. The capture stays
// intact and may be adopted by any number of tables; each copies the pages
// it writes.
func (t *table[K, V]) adopt(f frozen[K, V]) {
	*t = table[K, V]{pages: slices.Clone(f.pages), own: new(owner), n: f.n}
}
