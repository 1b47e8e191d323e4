package tpcw

// This file implements the keyed-snapshot half of live shard migration
// (core.PartitionedMachine): exporting only the rows a group is losing,
// merging such an export in on the destination, and dropping moved rows
// on the source after cutover. Row keys are the ones ItemKey, CustomerKey
// and CartKey spell ("item/N", "customer/N", "cart/N"), so the same
// hash-slice predicate that routes actions selects the rows that travel
// with them.
//
// Row-to-key mapping:
//   - carts move under "cart/N";
//   - customers move under "customer/N", carrying their addresses, orders
//     and last-order index (VerifyConsistency requires orders and their
//     customers to stay together);
//   - items move under "item/N". Catalog item rows exist in every group's
//     initial population (the catalog is soft-replicated), so DropOwned
//     keeps them: dropping would break local reads for sessions that
//     never moved. The import still overwrites the destination's copies,
//     carrying admin updates and stock decrements across.
//
// The best-sellers window (recentOrders/bsQty) is a per-group aggregate
// over the group's own order history and does not migrate; eviction
// tolerates dropped orders.
//
// ImportOwned is an idempotent keyed upsert (table set + max-monotonic ID
// counters), as core.PartitionedMachine requires: the migration driver
// may re-deliver a payload whose completion a crash hid.

// PartitionSnap is the keyed-snapshot payload: the subset of storeSnap
// owned by a key predicate. Like checkpoint payloads it shares pointed-to
// rows under the store's copy-on-write discipline: the tables lend the
// item and customer heads they export or import (table.lend), so neither
// side's next write to one edits the payload's.
type PartitionSnap struct {
	Items     map[ItemID]*itemHead
	Customers map[CustomerID]*customerHead
	Addresses map[AddressID]*Address
	Orders    map[OrderID]*orderRow
	Carts     map[CartID]cartRow
	LastOrder map[CustomerID]OrderID

	// Counter floors: the destination raises its ID counters to these so
	// rows it allocates later cannot collide with imported ones.
	NextAddress  AddressID
	NextCustomer CustomerID
	NextOrder    OrderID
	NextCart     CartID

	NominalBytes int64 // nominal size of the rows carried
}

// nominalOrderBytes is the accounting size of one order row, mirroring
// applyBuyConfirm's accrual.
func nominalOrderBytes(o *orderRow) int64 {
	return nominalOrder + nominalCC + int64(len(o.Lines))*nominalLine
}

func nominalCartBytes(c cartRow) int64 {
	return nominalCart + int64(len(c.Lines))*nominalCartLine
}

// ExportOwned implements core.PartitionedMachine: the rows whose key
// satisfies owned (shared, not copied), plus their nominal size.
func (s *Store) ExportOwned(owned func(key string) bool) (any, int64) {
	snap := PartitionSnap{
		Items:        make(map[ItemID]*itemHead),
		Customers:    make(map[CustomerID]*customerHead),
		Addresses:    make(map[AddressID]*Address),
		Orders:       make(map[OrderID]*orderRow),
		Carts:        make(map[CartID]cartRow),
		LastOrder:    make(map[CustomerID]OrderID),
		NextAddress:  s.nextAddress,
		NextCustomer: s.nextCustomer,
		NextOrder:    s.nextOrder,
		NextCart:     s.nextCart,
	}
	for id, it := range s.items.all() {
		if owned(ItemKey(id)) {
			snap.Items[id] = it
			s.items.lend(id)
			snap.NominalBytes += nominalItem
		}
	}
	for id, c := range s.customers.all() {
		if !owned(CustomerKey(id)) {
			continue
		}
		snap.Customers[id] = c
		s.customers.lend(id)
		snap.NominalBytes += nominalCustomer
		if a, ok := s.addresses.get(c.Addr); ok {
			snap.Addresses[c.Addr] = a
			snap.NominalBytes += nominalAddress
		}
		if oid, ok := s.lastOrder.get(id); ok {
			snap.LastOrder[id] = oid
		}
	}
	for id, o := range s.orders.all() {
		if owned(CustomerKey(o.Customer)) {
			snap.Orders[id] = o
			snap.NominalBytes += nominalOrderBytes(o)
			if a, ok := s.addresses.get(o.ShipAddr); ok && snap.Addresses[o.ShipAddr] == nil {
				snap.Addresses[o.ShipAddr] = a
				snap.NominalBytes += nominalAddress
			}
		}
	}
	for id, c := range s.carts.all() {
		if owned(CartKey(id)) {
			snap.Carts[id] = c
			snap.NominalBytes += nominalCartBytes(c)
		}
	}
	return snap, snap.NominalBytes
}

// ImportOwned implements core.PartitionedMachine: merge an ExportOwned
// payload in. Idempotent — re-importing the same payload leaves the state
// unchanged.
func (s *Store) ImportOwned(data any) {
	snap, ok := data.(PartitionSnap)
	if !ok {
		return
	}
	for id, it := range snap.Items {
		if !s.items.has(id) {
			s.nominalBytes += nominalItem
		}
		s.items.set(id, it)
		s.items.lend(id)
	}
	for id, c := range snap.Customers {
		if !s.customers.has(id) {
			s.nominalBytes += nominalCustomer
		}
		s.customers.set(id, c)
		s.customers.lend(id)
	}
	for id, a := range snap.Addresses {
		if !s.addresses.has(id) {
			s.nominalBytes += nominalAddress
		}
		s.addresses.set(id, a)
	}
	for id, o := range snap.Orders {
		if !s.orders.has(id) {
			s.nominalBytes += nominalOrderBytes(o)
		}
		s.orders.set(id, o)
	}
	for id, c := range snap.Carts {
		if had, ok := s.carts.get(id); ok {
			s.nominalBytes -= nominalCartBytes(had)
		}
		s.carts.set(id, c)
		s.nominalBytes += nominalCartBytes(c)
	}
	for cid, oid := range snap.LastOrder {
		s.lastOrder.set(cid, oid)
	}
	if snap.NextAddress > s.nextAddress {
		s.nextAddress = snap.NextAddress
	}
	if snap.NextCustomer > s.nextCustomer {
		s.nextCustomer = snap.NextCustomer
	}
	if snap.NextOrder > s.nextOrder {
		s.nextOrder = snap.NextOrder
	}
	if snap.NextCart > s.nextCart {
		s.nextCart = snap.NextCart
	}
	s.bsCache = nil
	s.bsBySubject = nil
}

// DropOwned implements core.PartitionedMachine: remove the moved rows on
// the source after cutover. Catalog item rows are kept (soft-replicated;
// see the file comment). Idempotent.
func (s *Store) DropOwned(owned func(key string) bool) {
	for id, c := range s.customers.all() {
		if !owned(CustomerKey(id)) {
			continue
		}
		s.customers.delete(id)
		s.nominalBytes -= nominalCustomer
		if s.addresses.delete(c.Addr) {
			s.nominalBytes -= nominalAddress
		}
		s.lastOrder.delete(id)
	}
	for id, o := range s.orders.all() {
		if owned(CustomerKey(o.Customer)) {
			s.orders.delete(id)
			s.nominalBytes -= nominalOrderBytes(o)
			if s.addresses.delete(o.ShipAddr) {
				s.nominalBytes -= nominalAddress
			}
		}
	}
	for id, c := range s.carts.all() {
		if owned(CartKey(id)) {
			s.carts.delete(id)
			s.nominalBytes -= nominalCartBytes(c)
		}
	}
	s.bsCache = nil
	s.bsBySubject = nil
	// A wholesale drop cannot travel in a row-upsert delta: poison the
	// chain so the next checkpoint folds into a fresh base (delta.go) —
	// dropped rows must not resurrect from a stale delta layer.
	s.deltaBase = false
}
