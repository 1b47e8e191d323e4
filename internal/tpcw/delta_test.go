package tpcw

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// storesEqual compares the replicated state of two stores row by row
// (the aggregates the checkpoints carry included). Rows are compared by what
// a reader sees: two stores populated separately hold equal rows in
// different allocations.
func storesEqual(t *testing.T, context string, a, b *Store) {
	t.Helper()
	if a.nominalBytes != b.nominalBytes {
		t.Errorf("%s: nominal bytes %d vs %d", context, a.nominalBytes, b.nominalBytes)
	}
	ai, ac, ao, act := a.Counts()
	bi, bc, bo, bct := b.Counts()
	if ai != bi || ac != bc || ao != bo || act != bct {
		t.Fatalf("%s: entity counts (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			context, ai, ac, ao, act, bi, bc, bo, bct)
	}
	for id := range a.items.all() {
		want, _ := a.GetBook(id)
		if got, ok := b.GetBook(id); !ok || got != want {
			t.Fatalf("%s: item %d differs:\n got %+v\nwant %+v", context, id, got, want)
		}
	}
	for id := range a.customers.all() {
		want, _ := a.GetCustomerByID(id)
		if got, ok := b.GetCustomerByID(id); !ok || got != want {
			t.Fatalf("%s: customer %d differs:\n got %+v\nwant %+v", context, id, got, want)
		}
		if got, ok := b.customerNamed(UserName(id)); !ok || got.ID != id {
			t.Fatalf("%s: uname index broken for customer %d", context, id)
		}
	}
	for id, ad := range a.addresses.all() {
		if got, _ := b.addresses.get(id); got == nil || *got != *ad {
			t.Fatalf("%s: address %d differs", context, id)
		}
	}
	for id := range a.orders.all() {
		want, _ := a.GetOrder(id)
		if got, ok := b.GetOrder(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: order %d differs:\n got %+v\nwant %+v", context, id, got, want)
		}
	}
	for id, c := range a.carts.all() {
		got, ok := b.carts.get(id)
		if !ok || len(got.Lines) != len(c.Lines) {
			t.Fatalf("%s: cart %d differs", context, id)
		}
	}
	for cid, oid := range a.lastOrder.all() {
		if got, _ := b.lastOrder.get(cid); got != oid {
			t.Fatalf("%s: lastOrder[%d] differs", context, cid)
		}
	}
	if len(a.recentOrders) != len(b.recentOrders) {
		t.Fatalf("%s: recent-order windows differ: %d vs %d",
			context, len(a.recentOrders), len(b.recentOrders))
	}
	for i, oid := range a.recentOrders {
		if b.recentOrders[i] != oid {
			t.Fatalf("%s: recent order %d differs", context, i)
		}
	}
	for iid, q := range a.bsQty.all() {
		if got, _ := b.bsQty.get(iid); got != q {
			t.Fatalf("%s: bsQty[%d] differs", context, iid)
		}
	}
	if a.nextAddress != b.nextAddress || a.nextCustomer != b.nextCustomer ||
		a.nextOrder != b.nextOrder || a.nextCart != b.nextCart {
		t.Fatalf("%s: ID counters differ", context)
	}
	if bad := b.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("%s: rebuilt store inconsistent: %v", context, bad)
	}
}

// mutate applies one deterministic round of every write action. Rounds r and
// r+100 write the same item (r%50+1) and customer (r%20+1) rows; an odd round
// writes only even-numbered customers.
func mutate(t *testing.T, s *Store, round int) {
	t.Helper()
	now := time.Unix(1243857600+int64(round)*60, 0).UTC()
	item, cust := ItemID(round%50+1), CustomerID(round%20+1)
	cr := s.Apply(CartUpdateAction{AddItem: item, AddQty: 2, Now: now}).(CartResult)
	if cr.Err != "" {
		t.Fatalf("round %d: cart: %s", round, cr.Err)
	}
	s.Apply(RefreshSessionAction{Customer: cust, Now: now})
	s.Apply(AdminUpdateAction{Item: item, Cost: 9.99, Image: "i", Thumbnail: "t", Now: now})
	if round%2 == 0 {
		br := s.Apply(BuyConfirmAction{
			Cart: cr.Cart.ID, Customer: cust, Now: now,
		}).(BuyConfirmResult)
		if br.Err != "" {
			t.Fatalf("round %d: buy: %s", round, br.Err)
		}
	}
	// A gift from cust to another customer, as the 2PC driver's two
	// branches, and a sweep repricing the item with a round-specific cost.
	gift := s.Apply(CartUpdateAction{AddItem: item, AddQty: 1, Now: now}).(CartResult)
	tag := fmt.Sprintf("g%d", round)
	lines, sub, tax, total, errs := s.GiftQuote(gift.Cart.ID, cust, tag)
	if errs != "" {
		t.Fatalf("round %d: gift quote: %s", round, errs)
	}
	if r := s.Apply(GiftAction{Parts: GiftDebit, Cart: gift.Cart.ID, Buyer: cust, Total: total, Tag: tag, Now: now}).(GiftResult); r.Err != "" {
		t.Fatalf("round %d: gift debit: %s", round, r.Err)
	}
	if r := s.Apply(GiftAction{
		Parts: GiftDeliver, Recipient: CustomerID((round+2)%20 + 1), Lines: lines, SubTotal: sub, Tax: tax, Total: total,
		ShipType: "AIR", ShipDate: now, Tag: tag, Now: now,
	}).(GiftResult); r.Err != "" {
		t.Fatalf("round %d: gift delivery: %s", round, r.Err)
	}
	sweep := InventorySweepAction{Items: []ItemID{item, ItemID((round+7)%50 + 1)}, Cost: 1 + float64(round)/100, Tag: fmt.Sprintf("s%d", round), Now: now}
	if r := s.Apply(sweep).(InventorySweepResult); r.Updated != 2 {
		t.Fatalf("round %d: sweep updated %d items", round, r.Updated)
	}
	if round%5 == 0 {
		s.Apply(CreateCustomerAction{
			FName: fmt.Sprintf("F%d", round), LName: "L", Street1: "1 St", City: "C",
			State: "ST", Zip: "12345", Country: 1, Phone: "555", Email: "e@x",
			BirthDate: now.AddDate(-30, 0, 0), Data: "d", Discount: 5, Now: now,
		})
	}
}

// TestSnapshotDeltaRebuildsState: base + delta layers must reconstruct
// exactly the state the writes produced, across several rounds with
// consumed (deleted) carts in between.
func TestSnapshotDeltaRebuildsState(t *testing.T) {
	live := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 9})

	// Anchor: the full base snapshot, restored into the rebuild store.
	base, _ := live.Snapshot()
	rebuilt := &Store{}
	rebuilt.Restore(base)

	var totalDelta, fullSize int64
	for round := 1; round <= 3; round++ {
		for i := 0; i < 25; i++ {
			mutate(t, live, round*100+i)
		}
		data, size, ok := live.SnapshotDelta()
		if !ok {
			t.Fatalf("round %d: SnapshotDelta failed after a full Snapshot anchor", round)
		}
		totalDelta += size
		rebuilt.ApplyDelta(data)
		storesEqual(t, fmt.Sprintf("round %d", round), live, rebuilt)
	}
	_, fullSize = live.Snapshot()
	if totalDelta*5 > fullSize {
		t.Errorf("three delta layers total %d bytes vs full state %d — deltas are not O(recent writes)",
			totalDelta, fullSize)
	}
}

// TestDeltaCartTombstones: a cart consumed by a purchase must not
// resurrect when the delta is replayed onto the base that still held it.
func TestDeltaCartTombstones(t *testing.T) {
	live := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 11})
	now := time.Unix(1243857600, 0).UTC()
	cr := live.Apply(CartUpdateAction{AddItem: 3, AddQty: 1, Now: now}).(CartResult)

	// The base snapshot contains the cart.
	base, _ := live.Snapshot()
	rebuilt := &Store{}
	rebuilt.Restore(base)
	if _, ok := rebuilt.GetCart(cr.Cart.ID); !ok {
		t.Fatal("base snapshot lost the live cart")
	}

	// The purchase consumes it; the delta must carry the tombstone.
	br := live.Apply(BuyConfirmAction{Cart: cr.Cart.ID, Customer: 1, Now: now}).(BuyConfirmResult)
	if br.Err != "" {
		t.Fatalf("buy: %s", br.Err)
	}
	data, _, ok := live.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta failed")
	}
	if len(data.(DeltaSnap).Carts.dead) == 0 {
		t.Fatal("delta carries no cart tombstones")
	}
	rebuilt.ApplyDelta(data)
	if _, ok := rebuilt.GetCart(cr.Cart.ID); ok {
		t.Errorf("consumed cart %d resurrected from the delta replay", cr.Cart.ID)
	}
	storesEqual(t, "post-purchase", live, rebuilt)
}

// TestDropOwnedPoisonsDelta: a wholesale drop cannot be expressed as a
// delta — SnapshotDelta must fail until the next full Snapshot re-anchors
// the chain, so dropped rows never resurrect from a stale layer.
func TestDropOwnedPoisonsDelta(t *testing.T) {
	s := migrationStore(t)
	if _, _, ok := s.SnapshotDelta(); ok {
		t.Fatal("SnapshotDelta succeeded with no full-snapshot anchor")
	}
	s.Snapshot()
	if _, _, ok := s.SnapshotDelta(); !ok {
		t.Fatal("SnapshotDelta failed right after a full Snapshot")
	}
	mutate(t, s, 1)
	s.DropOwned(ownedByParity)
	if _, _, ok := s.SnapshotDelta(); ok {
		t.Fatal("SnapshotDelta succeeded after DropOwned — dropped rows could resurrect")
	}
	s.Snapshot()    // fresh base re-anchors
	mutate(t, s, 3) // odd round: writes avoid the dropped (odd-ID) customers
	if _, _, ok := s.SnapshotDelta(); !ok {
		t.Fatal("SnapshotDelta failed after the fresh base")
	}
}

// TestImportRevivesDeadCartID: an imported cart whose ID matches a
// locally consumed cart must survive the next delta (the tombstone is
// withdrawn).
func TestImportRevivesDeadCartID(t *testing.T) {
	live := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 12})
	now := time.Unix(1243857600, 0).UTC()
	cr := live.Apply(CartUpdateAction{AddItem: 3, AddQty: 1, Now: now}).(CartResult)
	base, _ := live.Snapshot()
	rebuilt := &Store{}
	rebuilt.Restore(base)

	br := live.Apply(BuyConfirmAction{Cart: cr.Cart.ID, Customer: 1, Now: now}).(BuyConfirmResult)
	if br.Err != "" {
		t.Fatalf("buy: %s", br.Err)
	}
	// A migration import carries the same cart ID back in.
	live.ImportOwned(PartitionSnap{
		Carts:        map[CartID]cartRow{cr.Cart.ID: {ID: cr.Cart.ID, Time: stampOf(now), Lines: []CartLine{{Item: 4, Qty: 1}}}},
		NominalBytes: nominalCart + nominalCartLine,
	})
	data, _, ok := live.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta failed")
	}
	rebuilt.ApplyDelta(data)
	if _, ok := rebuilt.GetCart(cr.Cart.ID); !ok {
		t.Error("imported cart lost: stale tombstone shadowed the import")
	}
}
