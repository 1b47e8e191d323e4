package tpcw

// This file implements the incremental-checkpoint capability
// (core.DeltaSnapshotter) for the bookstore: a delta payload holding only
// the rows written since the previous checkpoint, and the merge that replays
// such payloads onto their base during recovery. Which rows those are is the
// tables' own knowledge (table.go): every write goes through table.set or
// table.delete, which mark the slot, and "since the previous checkpoint" is
// "since the table was last clean" because every checkpoint leaves the
// tables clean — a full Snapshot freezes them, Restore adopts them, and
// SnapshotDelta and ApplyDelta drain or clear the marks in place. No action
// records what it wrote, so none can forget to.
//
// Row deletions: the only rows regular actions delete are consumed
// shopping carts (applyBuyConfirm, giftDebit); a written slot that
// holds nothing travels as a tombstone. Wholesale deletions (DropOwned,
// during a shard rebalance) do not travel — they clear deltaBase, which
// makes SnapshotDelta fail until the next full Snapshot anchors a fresh
// base, so dropped rows can never resurrect from a stale delta layer.
//
// The small rolling aggregates — the best-sellers window and its
// quantity index, the ID counters and the nominal state size — travel
// wholesale in every delta: they mutate with nearly every order, and
// carrying them verbatim keeps ApplyDelta trivially exact.

// DeltaSnap is the incremental-checkpoint payload: per table, the rows
// written since the previous checkpoint and the tombstones of those deleted.
// Like full snapshots it shares rows (and the best-sellers aggregate's pages)
// under the store's copy-on-write discipline.
type DeltaSnap struct {
	Items     delta[ItemID, *itemHead]
	Customers delta[CustomerID, *customerHead]
	Addresses delta[AddressID, *Address]
	Orders    delta[OrderID, *orderRow]
	Carts     delta[CartID, cartRow]
	LastOrder delta[CustomerID, OrderID]

	// Aggregates carried wholesale (small next to the rows).
	RecentOrders []OrderID
	BsQty        frozen[ItemID, int64]
	NextAddress  AddressID
	NextCustomer CustomerID
	NextOrder    OrderID
	NextCart     CartID
	NominalBytes int64 // full-state nominal size after applying

	Bytes int64 // nominal serialized size of this delta
}

// deltaBytes is the nominal serialized size of one table's delta: each row
// at its accounting size, each tombstone as a bare key.
func deltaBytes[K ~int32, V any](d delta[K, V], rowBytes func(V) int64) int64 {
	n := 8 * int64(len(d.dead))
	for _, r := range d.rows {
		n += rowBytes(r.v)
	}
	return n
}

// SnapshotDelta implements core.DeltaSnapshotter: the rows written since
// the previous checkpoint, plus their nominal size. Fails (ok=false)
// until a full Snapshot anchors the chain, and after a DropOwned.
func (s *Store) SnapshotDelta() (any, int64, bool) {
	if !s.deltaBase {
		return nil, 0, false
	}
	snap := DeltaSnap{
		Items:        s.items.takeDelta(),
		Customers:    s.customers.takeDelta(),
		Addresses:    s.addresses.takeDelta(),
		Orders:       s.orders.takeDelta(),
		Carts:        s.carts.takeDelta(),
		LastOrder:    s.lastOrder.takeDelta(),
		RecentOrders: append([]OrderID(nil), s.recentOrders...),
		BsQty:        s.bsQty.freeze(),
		NextAddress:  s.nextAddress,
		NextCustomer: s.nextCustomer,
		NextOrder:    s.nextOrder,
		NextCart:     s.nextCart,
		NominalBytes: s.nominalBytes,
	}
	snap.Bytes = 128 +
		deltaBytes(snap.Items, func(*itemHead) int64 { return nominalItem }) +
		deltaBytes(snap.Customers, func(*customerHead) int64 { return nominalCustomer }) +
		deltaBytes(snap.Addresses, func(*Address) int64 { return nominalAddress }) +
		deltaBytes(snap.Orders, nominalOrderBytes) +
		deltaBytes(snap.Carts, nominalCartBytes) +
		deltaBytes(snap.LastOrder, func(OrderID) int64 { return 8 }) +
		4*int64(len(snap.RecentOrders)) + 12*int64(snap.BsQty.n)
	return snap, snap.Bytes, true
}

// ApplyDelta implements core.DeltaSnapshotter: merge a SnapshotDelta
// payload onto the state it was captured against (the base, or the base
// plus the preceding chain layers).
func (s *Store) ApplyDelta(data any) {
	snap, ok := data.(DeltaSnap)
	if !ok {
		return
	}
	s.items.applyDelta(snap.Items)
	s.customers.applyDelta(snap.Customers)
	s.addresses.applyDelta(snap.Addresses)
	s.orders.applyDelta(snap.Orders)
	s.carts.applyDelta(snap.Carts)
	s.lastOrder.applyDelta(snap.LastOrder)
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
	// The merged state is checkpoint-exact: the next delta is relative to it.
	s.deltaBase = true
}
