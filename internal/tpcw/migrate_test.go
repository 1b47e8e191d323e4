package tpcw

import (
	"strconv"
	"testing"
	"time"
)

// migrationStore builds a small populated store with some post-population
// divergence (carts and orders) so exports carry non-trivial state.
func migrationStore(t *testing.T) *Store {
	t.Helper()
	s := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 9})
	now := time.Unix(1243857600, 0).UTC()
	for i := 0; i < 20; i++ {
		cr := s.Apply(CartUpdateAction{AddItem: ItemID(i%50 + 1), AddQty: 2, Now: now}).(CartResult)
		if cr.Err != "" {
			t.Fatalf("cart setup: %s", cr.Err)
		}
		if i%3 == 0 {
			br := s.Apply(BuyConfirmAction{
				Cart: cr.Cart.ID, Customer: CustomerID(i%30 + 1), Now: now,
			}).(BuyConfirmResult)
			if br.Err != "" {
				t.Fatalf("order setup: %s", br.Err)
			}
		}
	}
	if bad := s.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("setup store inconsistent: %v", bad)
	}
	return s
}

// ownedByParity is a deterministic half-the-keyspace predicate.
func ownedByParity(key string) bool {
	slash := -1
	for i := range key {
		if key[i] == '/' {
			slash = i
		}
	}
	if slash < 0 {
		return false
	}
	n, err := strconv.Atoi(key[slash+1:])
	return err == nil && n%2 == 1
}

// TestPartitionExportImportDrop: the moved rows reappear intact on the
// destination (customers with their addresses, orders and last-order
// index; carts; items), the destination passes the consistency audit,
// the source passes it after the drop, and ID counters cannot collide.
func TestPartitionExportImportDrop(t *testing.T) {
	src := migrationStore(t)
	dst := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 10})

	data, size := src.ExportOwned(ownedByParity)
	snap := data.(PartitionSnap)
	if size <= 0 || size != snap.NominalBytes {
		t.Fatalf("export size %d / %d inconsistent", size, snap.NominalBytes)
	}
	if len(snap.Customers) == 0 || len(snap.Items) == 0 || len(snap.Carts) == 0 {
		t.Fatalf("export carried nothing: %d customers, %d items, %d carts",
			len(snap.Customers), len(snap.Items), len(snap.Carts))
	}
	for id := range snap.Customers {
		if !ownedByParity("customer/" + strconv.Itoa(int(id))) {
			t.Fatalf("customer %d exported but not owned", id)
		}
	}
	for id, o := range snap.Orders {
		if !ownedByParity("customer/" + strconv.Itoa(int(o.Customer))) {
			t.Fatalf("order %d exported but its customer %d not owned", id, o.Customer)
		}
		if _, ok := snap.Customers[o.Customer]; !ok {
			t.Fatalf("order %d exported without its customer", id)
		}
	}

	before := dst.NominalBytes()
	dst.ImportOwned(data)
	if dst.NominalBytes() <= before {
		t.Fatal("import did not grow the destination's nominal size")
	}
	for id, c := range snap.Customers {
		got, ok := dst.GetCustomerByID(id)
		if !ok || got.FName != c.FName {
			t.Fatalf("customer %d missing or wrong on destination", id)
		}
	}
	for id := range snap.Orders {
		if _, ok := dst.GetOrder(id); !ok {
			t.Fatalf("order %d missing on destination", id)
		}
	}
	for id := range snap.Carts {
		if _, ok := dst.GetCart(id); !ok {
			t.Fatalf("cart %d missing on destination", id)
		}
	}
	if bad := dst.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("destination inconsistent after import: %v", bad)
	}

	// Idempotency: re-importing the same payload changes nothing.
	nb := dst.NominalBytes()
	_, cust, orders, carts := dst.Counts()
	dst.ImportOwned(data)
	if dst.NominalBytes() != nb {
		t.Fatalf("re-import changed nominal size: %d → %d", nb, dst.NominalBytes())
	}
	if _, c2, o2, ca2 := dst.Counts(); c2 != cust || o2 != orders || ca2 != carts {
		t.Fatal("re-import changed row counts")
	}
	if bad := dst.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("destination inconsistent after re-import: %v", bad)
	}

	// New IDs allocated on the destination do not collide with imported
	// rows (counters were raised to the import's floors).
	cr := dst.Apply(CartUpdateAction{AddItem: 3, AddQty: 1, Now: time.Unix(1243857601, 0).UTC()}).(CartResult)
	if _, exported := snap.Carts[cr.Cart.ID]; exported {
		t.Fatalf("fresh cart %d collides with an imported one", cr.Cart.ID)
	}

	// Source-side cleanup: moved customers/orders/carts gone, catalog
	// items kept (soft-replicated), audit still passes.
	srcBefore := src.NominalBytes()
	src.DropOwned(ownedByParity)
	if src.NominalBytes() >= srcBefore {
		t.Fatal("drop did not shrink the source's nominal size")
	}
	for id := range snap.Customers {
		if _, ok := src.GetCustomerByID(id); ok {
			t.Fatalf("customer %d still on source after drop", id)
		}
	}
	for id := range snap.Orders {
		if _, ok := src.GetOrder(id); ok {
			t.Fatalf("order %d still on source after drop", id)
		}
	}
	for id := range snap.Items {
		if _, ok := src.GetBook(id); !ok {
			t.Fatalf("catalog item %d dropped from source (must be kept)", id)
		}
	}
	if bad := src.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("source inconsistent after drop: %v", bad)
	}
	// Drop is idempotent too.
	nb = src.NominalBytes()
	src.DropOwned(ownedByParity)
	if src.NominalBytes() != nb {
		t.Fatal("re-drop changed nominal size")
	}
}
