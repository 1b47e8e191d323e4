package tpcw

import "sort"

// This file implements the incremental-checkpoint capability
// (core.DeltaSnapshotter) for the bookstore: per-table dirty-key
// tracking maintained by every write action, a delta payload holding
// only the rows dirtied since the previous checkpoint, and the merge
// that replays such payloads onto their base during recovery.
//
// Row deletions: the only rows regular actions delete are consumed
// shopping carts (doBuyConfirm), so the delta carries cart tombstones.
// Wholesale deletions (DropOwned, during a shard rebalance) cannot be
// expressed as a keyed upsert — they clear deltaBase, which makes
// SnapshotDelta fail until the next full Snapshot anchors a fresh base,
// so dropped rows can never resurrect from a stale delta layer.
//
// The small rolling aggregates — the best-sellers window and its
// quantity index, the ID counters and the nominal state size — travel
// wholesale in every delta: they mutate with nearly every order, and
// carrying them verbatim keeps ApplyDelta trivially exact.

// DeltaSnap is the incremental-checkpoint payload: the rows dirtied
// since the previous checkpoint, in small maps. Like full snapshots it
// shares rows (and the best-sellers aggregate's pages) under the store's
// copy-on-write discipline.
type DeltaSnap struct {
	Items     map[ItemID]*Item
	Customers map[CustomerID]*Customer
	Addresses map[AddressID]*Address
	Orders    map[OrderID]*Order
	Carts     map[CartID]Cart
	DeadCarts []CartID // carts consumed by purchases (tombstones)
	LastOrder map[CustomerID]OrderID

	// Aggregates carried wholesale (small next to the row maps).
	RecentOrders []OrderID
	BsQty        frozen[ItemID, int64]
	NextAddress  AddressID
	NextCustomer CustomerID
	NextOrder    OrderID
	NextCart     CartID
	NominalBytes int64 // full-state nominal size after applying

	Bytes int64 // nominal serialized size of this delta
}

// storeDirty is the per-table dirty-key tracking. Maps are lazily
// allocated so zero-value and restored stores need no constructor.
type storeDirty struct {
	items     map[ItemID]struct{}
	customers map[CustomerID]struct{}
	addresses map[AddressID]struct{}
	orders    map[OrderID]struct{}
	carts     map[CartID]struct{}
	deadCarts map[CartID]struct{}
	lastOrder map[CustomerID]struct{}
}

func (s *Store) markItem(id ItemID) {
	if s.dirty.items == nil {
		s.dirty.items = make(map[ItemID]struct{})
	}
	s.dirty.items[id] = struct{}{}
}

func (s *Store) markCustomer(id CustomerID) {
	if s.dirty.customers == nil {
		s.dirty.customers = make(map[CustomerID]struct{})
	}
	s.dirty.customers[id] = struct{}{}
}

func (s *Store) markAddress(id AddressID) {
	if s.dirty.addresses == nil {
		s.dirty.addresses = make(map[AddressID]struct{})
	}
	s.dirty.addresses[id] = struct{}{}
}

func (s *Store) markOrder(id OrderID) {
	if s.dirty.orders == nil {
		s.dirty.orders = make(map[OrderID]struct{})
	}
	s.dirty.orders[id] = struct{}{}
}

func (s *Store) markCart(id CartID) {
	if s.dirty.carts == nil {
		s.dirty.carts = make(map[CartID]struct{})
	}
	s.dirty.carts[id] = struct{}{}
}

func (s *Store) markLastOrder(id CustomerID) {
	if s.dirty.lastOrder == nil {
		s.dirty.lastOrder = make(map[CustomerID]struct{})
	}
	s.dirty.lastOrder[id] = struct{}{}
}

// killCart records a cart deletion: it leaves the current delta as a
// tombstone, not an upsert. Cart IDs are monotone, so a dead ID is never
// re-created by an action (an import may revive one; see ImportOwned).
func (s *Store) killCart(id CartID) {
	delete(s.dirty.carts, id)
	if s.dirty.deadCarts == nil {
		s.dirty.deadCarts = make(map[CartID]struct{})
	}
	s.dirty.deadCarts[id] = struct{}{}
}

// resetDirty clears the tracking and re-anchors the delta chain: the
// next delta is relative to the state as of this call.
func (s *Store) resetDirty() {
	s.dirty = storeDirty{}
	s.deltaBase = true
}

// SnapshotDelta implements core.DeltaSnapshotter: the rows dirtied since
// the previous checkpoint, plus their nominal size. Fails (ok=false)
// until a full Snapshot anchors the chain, and after a DropOwned.
func (s *Store) SnapshotDelta() (any, int64, bool) {
	if !s.deltaBase {
		return nil, 0, false
	}
	snap := DeltaSnap{
		Items:        make(map[ItemID]*Item, len(s.dirty.items)),
		Customers:    make(map[CustomerID]*Customer, len(s.dirty.customers)),
		Addresses:    make(map[AddressID]*Address, len(s.dirty.addresses)),
		Orders:       make(map[OrderID]*Order, len(s.dirty.orders)),
		Carts:        make(map[CartID]Cart, len(s.dirty.carts)),
		LastOrder:    make(map[CustomerID]OrderID, len(s.dirty.lastOrder)),
		RecentOrders: append([]OrderID(nil), s.recentOrders...),
		BsQty:        s.bsQty.freeze(),
		NextAddress:  s.nextAddress,
		NextCustomer: s.nextCustomer,
		NextOrder:    s.nextOrder,
		NextCart:     s.nextCart,
		NominalBytes: s.nominalBytes,
	}
	var bytes int64 = 128
	for id := range s.dirty.items {
		if it, ok := s.items.get(id); ok {
			snap.Items[id] = it
			bytes += nominalItem
		}
	}
	for id := range s.dirty.customers {
		if c, ok := s.customers.get(id); ok {
			snap.Customers[id] = c
			bytes += nominalCustomer
		}
	}
	for id := range s.dirty.addresses {
		if a, ok := s.addresses.get(id); ok {
			snap.Addresses[id] = a
			bytes += nominalAddress
		}
	}
	for id := range s.dirty.orders {
		if o, ok := s.orders.get(id); ok {
			snap.Orders[id] = o
			bytes += nominalOrderBytes(o)
		}
	}
	for id := range s.dirty.carts {
		if c, ok := s.carts.get(id); ok {
			snap.Carts[id] = c
			bytes += nominalCartBytes(c)
		}
	}
	for id := range s.dirty.deadCarts {
		snap.DeadCarts = append(snap.DeadCarts, id)
		bytes += 8
	}
	sort.Slice(snap.DeadCarts, func(i, j int) bool { return snap.DeadCarts[i] < snap.DeadCarts[j] })
	for id := range s.dirty.lastOrder {
		if oid, ok := s.lastOrder.get(id); ok {
			snap.LastOrder[id] = oid
			bytes += 8
		}
	}
	bytes += 4*int64(len(snap.RecentOrders)) + 12*int64(snap.BsQty.n)
	snap.Bytes = bytes
	s.resetDirty()
	return snap, bytes, true
}

// ApplyDelta implements core.DeltaSnapshotter: merge a SnapshotDelta
// payload onto the state it was captured against (the base, or the base
// plus the preceding chain layers).
func (s *Store) ApplyDelta(data any) {
	snap, ok := data.(DeltaSnap)
	if !ok {
		return
	}
	for id, it := range snap.Items {
		s.items.set(id, it)
	}
	for id, c := range snap.Customers {
		s.customers.set(id, c)
	}
	for id, a := range snap.Addresses {
		s.addresses.set(id, a)
	}
	for id, o := range snap.Orders {
		s.orders.set(id, o)
	}
	for id, c := range snap.Carts {
		s.carts.set(id, c)
	}
	for _, id := range snap.DeadCarts {
		s.carts.delete(id)
	}
	for cid, oid := range snap.LastOrder {
		s.lastOrder.set(cid, oid)
	}
	s.recentOrders = append([]OrderID(nil), snap.RecentOrders...)
	s.bsQty.adopt(snap.BsQty)
	s.nextAddress = snap.NextAddress
	s.nextCustomer = snap.NextCustomer
	s.nextOrder = snap.NextOrder
	s.nextCart = snap.NextCart
	s.nominalBytes = snap.NominalBytes
	s.bsCache = nil
	s.bsBySubject = nil
	s.ordersSinceBS = 0
	s.resetDirty()
}
