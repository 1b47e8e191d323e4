package tpcw

// This file implements checkpointing for the bookstore state machine.
// Snapshot freezes every entity table (table.go): the payload holds a copy
// of each page directory and shares pages and rows with the live store,
// which copies a page the first time it writes to it afterwards. Restore
// adopts the payload's tables the same way, so one payload can restore any
// number of stores — on this replica or on one it was shipped to — and none
// of them observes another's writes. The immutable catalog (static items'
// indexes, authors, countries) is shared by reference. Capture and restore
// cost O(pages); the snapshot's *size* is the nominal state size, which is
// what the paper's recovery analysis depends on.
//
// Both also re-anchor the incremental-checkpoint chain (delta.go) without
// touching a dirty bit: a table that has just been frozen or adopted owns no
// page, and only the pages a table owns can hold slots written since it was
// last clean (table.go). Every later write copies its page with the bitmap
// cleared, so the next delta holds exactly the writes after this point.

// storeSnap is the checkpoint payload. It is immutable once built.
type storeSnap struct {
	Items        frozen[ItemID, *itemHead]
	Customers    frozen[CustomerID, *customerHead]
	Addresses    frozen[AddressID, *Address]
	Orders       frozen[OrderID, *orderRow]
	Carts        frozen[CartID, cartRow]
	BsQty        frozen[ItemID, int64]
	LastOrder    frozen[CustomerID, OrderID]
	RecentOrders []OrderID
	NextAddress  AddressID
	NextCustomer CustomerID
	NextOrder    OrderID
	NextCart     CartID
	NominalBytes int64
	Catalog      *catalog // shared immutable reference
}

// Snapshot returns a capture of the mutable bookstore state and its
// nominal size, implementing core.StateMachine.
func (s *Store) Snapshot() (any, int64) {
	snap := storeSnap{
		Items:        s.items.freeze(),
		Customers:    s.customers.freeze(),
		Addresses:    s.addresses.freeze(),
		Orders:       s.orders.freeze(),
		Carts:        s.carts.freeze(),
		BsQty:        s.bsQty.freeze(),
		LastOrder:    s.lastOrder.freeze(),
		RecentOrders: append([]OrderID(nil), s.recentOrders...),
		NextAddress:  s.nextAddress,
		NextCustomer: s.nextCustomer,
		NextOrder:    s.nextOrder,
		NextCart:     s.nextCart,
		NominalBytes: s.nominalBytes,
		Catalog:      s.cat,
	}
	// A full snapshot anchors the incremental-checkpoint chain: the next
	// SnapshotDelta is relative to this state, and freezing left every
	// table clean.
	s.deltaBase = true
	return snap, s.nominalBytes
}

// Restore replaces the store state from a Snapshot payload, implementing
// core.StateMachine.
func (s *Store) Restore(data any) {
	snap, ok := data.(storeSnap)
	if !ok {
		return
	}
	s.items.adopt(snap.Items)
	s.customers.adopt(snap.Customers)
	s.addresses.adopt(snap.Addresses)
	s.orders.adopt(snap.Orders)
	s.carts.adopt(snap.Carts)
	s.bsQty.adopt(snap.BsQty)
	s.lastOrder.adopt(snap.LastOrder)
	s.recentOrders = append([]OrderID(nil), snap.RecentOrders...)
	s.nextAddress = snap.NextAddress
	s.nextCustomer = snap.NextCustomer
	s.nextOrder = snap.NextOrder
	s.nextCart = snap.NextCart
	s.nominalBytes = snap.NominalBytes
	if snap.Catalog != nil {
		s.cat = snap.Catalog
	}
	s.bsCache = nil
	s.bsBySubject = nil
	s.ordersSinceBS = 0
	// The restored state is snapshot-exact and the adopted tables are
	// clean: the next delta is relative to it.
	s.deltaBase = true
}

// Execute implements core.StateMachine by dispatching to Apply.
func (s *Store) Execute(action any) any { return s.Apply(action) }

// Clone returns an independent copy of the store (sharing the immutable
// catalog, and pages until either side writes to them). The experiment
// harness populates one prototype per state size and clones it for each
// replica.
func (s *Store) Clone() *Store {
	snap, _ := s.Snapshot()
	out := &Store{}
	out.Restore(snap)
	return out
}
