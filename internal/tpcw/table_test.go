package tpcw

import (
	"fmt"
	"maps"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"robuststore/internal/slab"
	"robuststore/internal/xrand"
)

// world is a table beside the plain map it must behave like, the set of keys
// written since the table was last clean, and a second table that follows the
// first through its captures and deltas only — a replica recovering from base
// plus chain.
type world struct {
	t       table[int32, int]
	ref     map[int32]int
	written map[int32]bool
	replica table[int32, int]
}

// rebase is what a freeze or an adopt means to the tracking: the table is
// clean, and the replica restarts from the capture.
func (w *world) rebase(f frozen[int32, int]) {
	w.written = map[int32]bool{}
	w.replica.adopt(f)
}

// checkDelta takes the table's delta and checks it against the reference: its
// upserts and tombstones are exactly the keys written since the table was last
// clean, each once, ascending, upserts carrying the current value; and merging
// it brings the replica level with the table and leaves the replica clean.
func (w *world) checkDelta(t *testing.T, universe int32) {
	t.Helper()
	d := w.t.takeDelta()
	if len(d.rows)+len(d.dead) != len(w.written) {
		t.Fatalf("delta holds %d upserts and %d tombstones, %d keys were written",
			len(d.rows), len(d.dead), len(w.written))
	}
	last := int32(-1)
	for _, r := range d.rows {
		if v, ok := w.ref[r.k]; r.k <= last || !w.written[r.k] || !ok || v != r.v {
			t.Fatalf("upsert %d=%d after %d: written %v, reference %d, %v", r.k, r.v, last, w.written[r.k], v, ok)
		}
		last = r.k
	}
	last = -1
	for _, k := range d.dead {
		if _, ok := w.ref[k]; k <= last || !w.written[k] || ok {
			t.Fatalf("tombstone %d after %d: written %v, present %v", k, last, w.written[k], ok)
		}
		last = k
	}
	w.written = map[int32]bool{}
	w.replica.applyDelta(d)
	sameAsMap(t, "replica after delta", &w.replica, w.ref, universe)
	if again := w.replica.takeDelta(); len(again.rows)+len(again.dead) != 0 {
		t.Fatalf("merging a delta left the replica dirty: %+v", again)
	}
	if again := w.t.takeDelta(); len(again.rows)+len(again.dead) != 0 {
		t.Fatalf("a second takeDelta found %+v", again)
	}
}

// capture is a frozen table beside the map contents it was frozen at.
type capture struct {
	f   frozen[int32, int]
	ref map[int32]int
}

// sameAsMap checks every observable of a table against its reference: len,
// get over the whole key universe (absent keys included), and that all
// yields exactly the reference's rows in ascending key order.
func sameAsMap(t *testing.T, what string, tb *table[int32, int], ref map[int32]int, universe int32) {
	t.Helper()
	what = t.Name() + ": " + what
	if tb.len() != len(ref) {
		t.Fatalf("%s: len %d, reference %d", what, tb.len(), len(ref))
	}
	for k := int32(-2); k < universe+pageSize; k++ {
		got, ok := tb.get(k)
		want, wantOK := ref[k]
		if ok != wantOK || got != want {
			t.Fatalf("%s: get(%d) = %d, %v; reference %d, %v", what, k, got, ok, want, wantOK)
		}
	}
	seen, last := 0, int32(-1)
	for k, v := range tb.all() {
		if k <= last {
			t.Fatalf("%s: all yielded %d after %d", what, k, last)
		}
		if want, ok := ref[k]; !ok || want != v {
			t.Fatalf("%s: all yielded %d=%d; reference %d, %v", what, k, v, want, ok)
		}
		seen, last = seen+1, k
	}
	if seen != len(ref) {
		t.Fatalf("%s: all yielded %d rows, reference has %d", what, seen, len(ref))
	}
}

// TestTableMatchesMapReference drives seeded random set / delete / freeze /
// adopt / takeDelta sequences over several tables that keep sharing pages
// with each other's captures, and checks every table and every capture
// against a plain map after each step that could leak a write: a capture
// never observes a later write, and tables adopted from one capture never
// observe each other's. Every takeDelta is checked against the keys written
// since the table was last clean — pages shared with a capture carry another
// table's dirty bits, which must not show — and replayed onto a replica.
func TestTableMatchesMapReference(t *testing.T) {
	const universe = 5*pageSize + 17 // several pages, the last one partial
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		worlds := make([]*world, 4)
		for i := range worlds {
			worlds[i] = &world{ref: map[int32]int{}, written: map[int32]bool{}}
		}
		var caps []capture
		checkAll := func() {
			t.Helper()
			for _, w := range worlds {
				sameAsMap(t, "table", &w.t, w.ref, universe)
			}
			for _, c := range caps {
				var r table[int32, int]
				r.adopt(c.f)
				sameAsMap(t, "capture", &r, c.ref, universe)
			}
		}
		for step := 0; step < 4000; step++ {
			w := worlds[rng.Intn(len(worlds))]
			// Phases alternate between filling and draining, so pages fill
			// up and empty out.
			deleteOdds := 25
			if (step/500)%2 == 1 {
				deleteOdds = 70
			}
			switch op := rng.Intn(100); {
			case op < 2:
				w.checkDelta(t, universe)
			case op < 4:
				caps = append(caps, capture{w.t.freeze(), maps.Clone(w.ref)})
				w.rebase(caps[len(caps)-1].f)
				if len(caps) > 6 {
					caps = caps[1:]
				}
			case op < 8 && len(caps) > 0:
				c := caps[rng.Intn(len(caps))]
				w.t.adopt(c.f)
				w.ref = maps.Clone(c.ref)
				w.rebase(c.f)
			case op < 8+deleteOdds:
				// Mostly delete what is there: a random key rarely is.
				k := int32(rng.Intn(universe))
				for probe := int32(0); probe < universe && !w.t.has(k); probe++ {
					k = (k + 1) % universe
				}
				if w.t.delete(k) {
					w.written[k] = true
				}
				delete(w.ref, k)
			default:
				k, v := int32(rng.Intn(universe)), int(rng.Uint64()>>1)
				w.t.set(k, v)
				w.ref[k] = v
				w.written[k] = true
			}
			if step%97 == 0 {
				checkAll()
			}
		}
		checkAll()
		for _, w := range worlds {
			w.checkDelta(t, universe)
		}
	}
}

// TestTableDeleteWhileIterating: all tolerates the body deleting the row it
// was handed (DropOwned's pattern), on owned pages and on shared ones, down
// to an empty table.
func TestTableDeleteWhileIterating(t *testing.T) {
	for _, shared := range []bool{false, true} {
		var tb table[int32, int]
		ref := map[int32]int{}
		for k := int32(1); k < 3*pageSize; k += 3 {
			tb.set(k, int(k))
			ref[k] = int(k)
		}
		total := len(ref)
		var keep frozen[int32, int]
		if shared {
			keep = tb.freeze()
		}
		for _, drop := range []int32{2, 1} { // every other row, then the rest
			for k := range tb.all() {
				if k%drop == 0 {
					tb.delete(k)
					delete(ref, k)
				}
			}
			sameAsMap(t, "after drop", &tb, ref, 3*pageSize)
		}
		if tb.len() != 0 {
			t.Fatalf("shared=%v: %d rows left", shared, tb.len())
		}
		if shared {
			var r table[int32, int]
			r.adopt(keep)
			if r.len() != total {
				t.Fatalf("capture lost rows to the drop: %d left", r.len())
			}
		}
	}
}

// TestRestoredStoresStayIndependent: a replica snapshots, the payload
// restores other stores (a local recovery and shipped checkpoints), and they
// then diverge. Each must equal a control store that reached the same state
// without ever sharing a page, a row or a body.
func TestRestoredStoresStayIndependent(t *testing.T) {
	fresh := func(rounds ...int) *Store {
		s := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 9})
		for _, r := range rounds {
			mutate(t, s, r)
		}
		return s
	}
	a := fresh(1, 2)
	payload, _ := a.Snapshot()
	b, c, idle := &Store{}, &Store{}, &Store{}
	b.Restore(payload)
	c.Restore(payload)
	idle.Restore(payload)

	mutate(t, a, 10)
	mutate(t, a, 11)
	// b and c write the heads of the same item (21) and customer (1), which
	// they share with each other and with the payload: a head written in
	// place rather than copied would show through to the sibling.
	mutate(t, b, 20)
	mutate(t, c, 120)
	storesEqual(t, "snapshotting replica", a, fresh(1, 2, 10, 11))
	storesEqual(t, "restored and written", b, fresh(1, 2, 20))
	storesEqual(t, "restored sibling, same rows written", c, fresh(1, 2, 120))
	storesEqual(t, "restored and idle", idle, fresh(1, 2))

	// The payload itself is still the state it captured.
	d := &Store{}
	d.Restore(payload)
	storesEqual(t, "payload after its users diverged", d, fresh(1, 2))

	// Delta layers on top of a shared base stay private too.
	mutate(t, a, 12)
	delta, _, ok := a.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta failed")
	}
	mutate(t, a, 13)
	d.ApplyDelta(delta)
	mutate(t, d, 30)
	storesEqual(t, "base plus delta, then written", d, fresh(1, 2, 10, 11, 12, 30))
	storesEqual(t, "delta source", a, fresh(1, 2, 10, 11, 12, 13))
}

// TestEditCopiesOnlyFirstWriteAfterCapture: a head the table stored since its
// last capture is its own and is edited in place; any other is copied first.
// After each way a head comes to be shared — Snapshot, SnapshotDelta, Clone
// (on both sides), Restore, ExportOwned and ImportOwned — the next write of
// an item and of a customer stores a copy and the write after it edits that
// copy; and every payload taken so far still reads what it held when taken.
func TestEditCopiesOnlyFirstWriteAfterCapture(t *testing.T) {
	const item, cust = ItemID(21), CustomerID(1)
	s := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 9})
	s.Snapshot() // anchors the delta chain
	round := 0
	heads := func(st *Store) (*itemHead, *customerHead) {
		ih, _ := st.items.get(item)
		ch, _ := st.customers.get(cust)
		return ih, ch
	}
	views := func(st *Store) (Item, Customer) {
		it, _ := st.GetBook(item)
		c, _ := st.GetCustomerByID(cust)
		return it, c
	}
	// write has st sweep the item and refresh the customer's session.
	write := func(st *Store) (*itemHead, *customerHead) {
		round++
		at := now().Add(time.Duration(round) * time.Minute)
		st.Apply(InventorySweepAction{Items: []ItemID{item}, Cost: float64(round), Tag: "s" + strconv.Itoa(round), Now: at})
		st.Apply(RefreshSessionAction{Customer: cust, Now: at})
		return heads(st)
	}
	type payload struct {
		what string
		read func() (Item, Customer)
		item Item
		cust Customer
	}
	var payloads []payload
	keep := func(what string, read func() (Item, Customer)) {
		it, c := read()
		if it.ID != item || c.ID != cust {
			t.Fatalf("the %s payload does not hold item %d and customer %d", what, item, cust)
		}
		payloads = append(payloads, payload{what, read, it, c})
	}
	// edits checks st's next two writes: the first copies both heads, the
	// second writes the copies.
	edits := func(after string, st *Store) {
		t.Helper()
		ih0, ch0 := heads(st)
		ih1, ch1 := write(st)
		if ih1 == ih0 || ch1 == ch0 {
			t.Fatalf("after %s: the first write edited a head in place (item %v, customer %v)", after, ih1 == ih0, ch1 == ch0)
		}
		if ih2, ch2 := write(st); ih2 != ih1 || ch2 != ch1 {
			t.Fatalf("after %s: the second write copied a head again (item %v, customer %v)", after, ih2 != ih1, ch2 != ch1)
		}
		for _, p := range payloads {
			if it, c := p.read(); it != p.item || c != p.cust {
				t.Fatalf("after %s: the %s payload reads %+v and %+v; it held %+v and %+v", after, p.what, it, c, p.item, p.cust)
			}
		}
	}
	edits("the anchoring Snapshot", s)

	snap, _ := s.Snapshot()
	keep("Snapshot", func() (Item, Customer) {
		r := &Store{}
		r.Restore(snap)
		return views(r)
	})
	edits("Snapshot", s)

	d, _, ok := s.SnapshotDelta()
	if !ok {
		t.Fatal("SnapshotDelta failed")
	}
	keep("SnapshotDelta", func() (it Item, c Customer) {
		for _, r := range d.(DeltaSnap).Items.rows {
			if r.k == item {
				it = r.v.item()
			}
		}
		for _, r := range d.(DeltaSnap).Customers.rows {
			if r.k == cust {
				c = r.v.customer()
			}
		}
		return it, c
	})
	edits("SnapshotDelta", s)

	// The clone is the source's payload until it writes itself.
	clone := s.Clone()
	keep("Clone", func() (Item, Customer) { return views(clone) })
	edits("Clone, in the source", s)
	payloads = payloads[:len(payloads)-1]
	edits("Clone, in the clone", clone)

	restored := &Store{}
	restored.Restore(snap)
	edits("Restore", restored)

	owned := func(key string) bool { return key == ItemKey(item) || key == CustomerKey(cust) }
	exp, _ := s.ExportOwned(owned)
	keep("ExportOwned", func() (Item, Customer) {
		p := exp.(PartitionSnap)
		return p.Items[item].item(), p.Customers[cust].customer()
	})
	edits("ExportOwned", s)

	dst := s.Clone()
	write(dst) // the destination's own heads, before the import replaces them
	dst.ImportOwned(exp)
	edits("ImportOwned", dst)
}

// TestStoreRowsAreNeverShared: each store carves its rows from slabs of its
// own. Two stores cloned from one population, and a third restored from a
// snapshot of one of them, each apply every kind of write, round after round,
// with contents of their own; a Snapshot opens each round, so every head a
// round writes is a copy the round made. No two rows sit at one address — a
// row another store shares is the same row, read the same — and every row
// reads at the end what it read when the round that wrote it ended.
func TestStoreRowsAreNeverShared(t *testing.T) {
	pop := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 9})
	a, b := pop.Clone(), pop.Clone()
	mutate(t, a, 1)
	snap, _ := a.Snapshot()
	c := &Store{}
	c.Restore(snap)

	type held struct {
		who  string
		read func() any // what the row reads now
		was  any
	}
	rows := map[any]held{} // every row seen, by its address and type
	note := func(who string, p any, read func() any) {
		now := read()
		if h, ok := rows[p]; !ok {
			rows[p] = held{who, read, now}
		} else if h.was != now {
			t.Fatalf("%s holds a row at %p reading %v, where %s's row read %v", who, p, now, h.who, h.was)
		}
	}
	// record notes every row s holds. An order and its lines are read as
	// text: an Order does not compare with ==.
	record := func(who string, s *Store) {
		for _, h := range s.items.all() {
			note(who, h, func() any { return h.item() })
		}
		for _, h := range s.customers.all() {
			note(who, h, func() any { return h.customer() })
			note(who, h.customerBody, func() any { return *h.customerBody })
		}
		for _, ad := range s.addresses.all() {
			note(who, ad, func() any { return *ad })
		}
		for _, o := range s.orders.all() {
			note(who, o, func() any { return fmt.Sprint(*o) })
			note(who, &o.Lines[0], func() any { return fmt.Sprint(o.Lines) })
		}
	}
	stores := []struct {
		who string
		s   *Store
	}{{"clone a", a}, {"clone b", b}, {"restored c", c}}
	for round := range 24 {
		for i, st := range stores {
			st.s.Snapshot()
			r := 1000*(i+1) + round
			mutate(t, st.s, r)
			at := time.Unix(1243857600+int64(r)*60, 0).UTC()
			buyer, recipient := CustomerID(round%20+1), CustomerID((round+5)%20+1)
			cart := st.s.Apply(CartUpdateAction{AddItem: ItemID(round%50 + 1), AddQty: 1, Now: at}).(CartResult).Cart.ID
			if g := st.s.Apply(GiftAction{Parts: GiftDebit | GiftDeliver, Cart: cart, Buyer: buyer, Recipient: recipient,
				ShipType: "AIR", ShipDate: at, Tag: fmt.Sprintf("%s-%d", st.who, round), Now: at}).(GiftResult); g.Err != "" {
				t.Fatalf("%s, round %d: gift order: %s", st.who, round, g.Err)
			}
			record(st.who, st.s)
		}
	}
	for p, h := range rows {
		if now := h.read(); now != h.was {
			t.Fatalf("the row %s wrote at %p read %v and now reads %v", h.who, p, h.was, now)
		}
	}
	for _, st := range stores {
		if bad := st.s.VerifyConsistency(); len(bad) > 0 {
			t.Errorf("%s is inconsistent: %v", st.who, bad)
		}
	}
}

// TestCountsWithHoles: after DropOwned punched holes through every page,
// Counts and Info report the rows that are left, and a dropped customer is
// gone by ID and by user name.
func TestCountsWithHoles(t *testing.T) {
	s := migrationStore(t)
	_, before, _, _ := s.Counts()
	s.DropOwned(ownedByParity)
	_, customers, orders, carts := s.Counts()
	if customers == 0 || customers >= before {
		t.Fatalf("drop left %d of %d customers", customers, before)
	}
	if got := s.Info().Customers; got != customers {
		t.Errorf("Info says %d customers, Counts %d", got, customers)
	}
	nCustomers, nOrders, nCarts := 0, 0, 0
	for range s.customers.all() {
		nCustomers++
	}
	for range s.orders.all() {
		nOrders++
	}
	for range s.carts.all() {
		nCarts++
	}
	if nCustomers != customers || nOrders != orders || nCarts != carts {
		t.Errorf("Counts says %d customers, %d orders, %d carts; the tables hold %d, %d, %d",
			customers, orders, carts, nCustomers, nOrders, nCarts)
	}
	if _, ok := s.GetCustomerByID(1); ok {
		t.Error("customer 1 still readable by ID after the drop")
	}
	if _, ok := s.customerNamed(UserName(1)); ok {
		t.Error("customer 1 still readable by user name after the drop")
	}
	if c, ok := s.customerNamed(UserName(2)); !ok || c.ID != 2 {
		t.Error("customer 2 lost to the drop")
	}
	if bad := s.VerifyConsistency(); len(bad) > 0 {
		t.Errorf("inconsistent after the drop: %v", bad)
	}
}

// TestGetCustomerParsesUName: the user name is the only index of TPC-W's
// getCustomer (customerNamed), so only the canonical spelling of an existing
// ID may hit, and a lookup allocates nothing, hit or miss.
func TestGetCustomerParsesUName(t *testing.T) {
	s := testStore()
	if c, ok := s.customerNamed("C7"); !ok || c.ID != 7 || c.customer().UName != "C7" {
		t.Fatalf("customerNamed(C7) = %+v, %v", c, ok)
	}
	for _, uname := range []string{"", "C", "7", "c7", "C07", "C+7", "C-7", "C 7", "C7 ", "C0", "C99999999999", "C7x", "D7"} {
		if c, ok := s.customerNamed(uname); ok {
			t.Errorf("customerNamed(%q) hit customer %d", uname, c.ID)
		}
	}
	for _, uname := range []string{"C7", "C07", "C99999"} {
		if n := testing.AllocsPerRun(100, func() { s.customerNamed(uname) }); n != 0 {
			t.Errorf("customerNamed(%q) allocated %.1f times", uname, n)
		}
	}
	if n := testing.AllocsPerRun(10, func() { s.VerifyConsistency() }); n != 0 {
		t.Errorf("VerifyConsistency allocated %.1f times on a consistent store", n)
	}
}

// allocated returns the bytes and the objects f allocates. The memory
// statistics count every goroutine's allocations, so f runs with one P, as
// in testing.AllocsPerRun: no other goroutine allocates while it runs.
func allocated(f func()) (bytes, objects uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// paperPopulation is the 500 MB state of the paper's experiments at the
// harness's reduction: 10k items, 36k customers, 72k addresses, 32k orders.
var paperPopulation = PopConfig{Items: 10000, EBs: 50, Reduction: 4, Seed: 7}

// TestSnapshotAllocBudget: capturing, restoring and cloning the paper
// population copy page directories, never rows — a few KB each (the
// best-sellers window is the largest piece), where copying the entity maps
// took 6.8 MB.
func TestSnapshotAllocBudget(t *testing.T) {
	const budget = 64 << 10
	s := Populate(paperPopulation)
	var snap any
	if n, _ := allocated(func() { snap, _ = s.Snapshot() }); n >= budget {
		t.Errorf("Snapshot allocated %d bytes, budget %d", n, budget)
	}
	r := &Store{}
	if n, _ := allocated(func() { r.Restore(snap) }); n >= budget {
		t.Errorf("Restore allocated %d bytes, budget %d", n, budget)
	}
	var c *Store
	if n, _ := allocated(func() { c = s.Clone() }); n >= budget {
		t.Errorf("Clone allocated %d bytes, budget %d", n, budget)
	}
	if _, customers, _, _ := c.Counts(); customers != 36000 {
		t.Fatalf("clone holds %d customers", customers)
	}
}

// spanWrites is how many writes a cost is averaged over: four slab arrays of
// order lines, the smallest row the store carves, and so at least four arrays
// of every kind a write carves from. A mean over whole arrays charges each
// write its share of the array it came from; a median would see either no
// array or a whole one.
const spanWrites = 4 * slab.Bytes / int(unsafe.Sizeof(OrderLine{}))

// writeCost is the mean cost of one kind of write.
type writeCost struct {
	what          string
	bytes, allocs float64
}

// writeCosts measures each kind of write on the paper population right after
// a Snapshot, so rows and pages are shared as on a replica between
// checkpoints, applying each with apply. Each kind is applied spanWrites + 1
// times, and the mean of all but the first is its cost: the first pays for
// the first write to each shared page. Measured "after a capture", each write
// is the first after a capture of the item and customer tables — their deltas
// are drained first, as SnapshotDelta drains them, so every head the write
// changes is shared and copied, but no page is; a "second write" follows a
// write of the same rows with no capture between.
func writeCosts(apply func(*Store, any)) []writeCost {
	s := Populate(paperPopulation)
	s.Snapshot()
	at := func(i int) time.Time { return now().Add(time.Duration(i) * time.Minute) }
	// mean builds the writes with f, then applies and measures them. Actions
	// are boxed before they are measured: Apply's caller pays that.
	mean := func(captured bool, f func(i int) any) (bytes, allocs float64) {
		actions := make([]any, spanWrites+1)
		for i := range actions {
			actions[i] = f(i)
		}
		apply(s, actions[0])
		var b, n uint64
		for _, a := range actions[1:] {
			if captured {
				s.items.takeDelta()
				s.customers.takeDelta()
			}
			db, dn := allocated(func() { apply(s, a) })
			b, n = b+db, n+dn
		}
		return float64(b) / float64(spanWrites), float64(n) / float64(spanWrites)
	}
	// buy is a buy-confirm of a k-line cart.
	buy := func(k int) func(i int) any {
		return func(i int) any {
			cart := s.Apply(CartUpdateAction{Now: at(i)}).(CartResult).Cart.ID
			for item := 1; item <= k; item++ {
				s.Apply(CartUpdateAction{Cart: cart, AddItem: ItemID(item), AddQty: 1, Now: at(i)})
			}
			return BuyConfirmAction{Cart: cart, Customer: 2, ShipDate: at(i), Now: at(i)}
		}
	}
	buy1B, buy1N := mean(true, buy(1))
	buy5B, buy5N := mean(true, buy(5))
	lineB, lineN := (buy5B-buy1B)/4, (buy5N-buy1N)/4
	sweep := make([]ItemID, 100)
	for i := range sweep {
		sweep[i] = ItemID(i + 1)
	}
	perItem := float64(len(sweep))
	refresh := func(i int) any { return RefreshSessionAction{Customer: 1, Now: at(i)} }
	sweepTo := func(i int) any { return InventorySweepAction{Items: sweep, Cost: float64(i), Tag: "s", Now: at(i)} }
	costs := []writeCost{
		{what: "BuyConfirm per item line", bytes: lineB, allocs: lineN},
		{what: "BuyConfirm per order", bytes: buy1B - lineB, allocs: buy1N - lineN},
	}
	for _, k := range []struct {
		what     string
		captured bool
		per      float64
		f        func(i int) any
	}{
		{"RefreshSession", true, 1, refresh},
		{"RefreshSession, second write", false, 1, refresh},
		{"InventorySweep per item", true, perItem, sweepTo},
		{"InventorySweep per item, second write", false, perItem, sweepTo},
		{"AdminUpdate", true, 1, func(i int) any {
			return AdminUpdateAction{Item: 3, Cost: float64(i), Image: "i", Thumbnail: "t", Now: at(i)}
		}},
		{"CreateCustomer", true, 1, func(i int) any {
			return CreateCustomerAction{FName: "F", LName: "L", Street1: "1 St", City: "C",
				State: "ST", Zip: "1", Country: 1, Discount: 5, Now: at(i)}
		}},
		{"CartUpdate adding a line", true, 1, func(i int) any {
			cart := s.Apply(CartUpdateAction{AddItem: 1, AddQty: 1, Now: at(i)}).(CartResult).Cart.ID
			return CartUpdateAction{Cart: cart, AddItem: 2, AddQty: 1, Now: at(i)}
		}},
	} {
		b, n := mean(k.captured, k.f)
		costs = append(costs, writeCost{k.what, b / k.per, n / k.per})
	}
	return costs
}

// TestApplyByteBudget: the first write to a row after a capture copies the
// row's head (48 B for a customer, 88 B for an item) and nothing else of it,
// and a second write before the next capture copies nothing. The rows a
// store keeps hold their instants as 8 B stamps and pair their int32
// columns, and the sizes below bound them. The budgets are this layout's
// figures plus 10 %; copying the whole 288 B Item or Customer, as every one
// of these actions once did, exceeds each of them, and so does a head, an
// order or a customer row that keeps a 24 B time.Time for each instant (96,
// 256 and 248 B). A figure is a mean over whole slab arrays (writeCosts), so
// it counts each row at its share of its array — a 48 B head at 48.1 B — and
// each page and each regrowth of the best-sellers window at its share of the
// writes that use it.
func TestApplyByteBudget(t *testing.T) {
	for _, row := range []struct {
		what      string
		size, max uintptr
	}{
		{"itemHead", unsafe.Sizeof(itemHead{}), 88},
		{"customerHead", unsafe.Sizeof(customerHead{}), 48},
		{"customerRow", unsafe.Sizeof(customerRow{}), 160},
		{"Address", unsafe.Sizeof(Address{}), 88},
		{"orderRow", unsafe.Sizeof(orderRow{}), 192},
		{"cartRow", unsafe.Sizeof(cartRow{}), 40},
	} {
		if row.size > row.max {
			t.Errorf("%s is %d bytes, want ≤ %d", row.what, row.size, row.max)
		}
	}
	budgets := map[string]float64{
		// The customer's head: 48 (288 whole).
		"RefreshSession": 53,
		// Nothing: the head the first write copied is written in place.
		"RefreshSession, second write": 0,
		// The item's head and the order line: 88 + 32 (320).
		"BuyConfirm per item line": 132,
		// The order 192, the customer's head 48 and the boxed result 32:
		// 272, and a share of the orders' and the last-order index's pages
		// (624, with a whole customer row and the order's stored
		// authorization ID and time.Time instants).
		"BuyConfirm per order": 330,
		// The item's head: 88 (288).
		"InventorySweep per item": 97,
		// Nothing: the boxed result, 100, is one of the runtime's static
		// small integers.
		"InventorySweep per item, second write": 0,
		// The item's head: 88 (616 with the whole row and relatedFromOrders'
		// count map, which holds item 3's co-purchases in the window: the
		// four other items of the buy-confirms above, so it stays on the
		// stack).
		"AdminUpdate": 97,
		// The address 88, the row (body and first head in one record) 160
		// and the boxed result 16: 264, and a share of the customers' and
		// the addresses' pages (704, with the user name, the password and a
		// second whole row in the result).
		"CreateCustomer": 323,
	}
	for _, c := range writeCosts(func(s *Store, a any) { s.Apply(a) }) {
		budget, ok := budgets[c.what]
		if !ok {
			continue
		}
		t.Logf("%s: %.1f B (budget %.0f)", c.what, c.bytes, budget)
		if c.bytes > budget {
			t.Errorf("%s allocated %.6f bytes, budget %.0f", c.what, c.bytes, budget)
		}
	}
}

// applyUnboxed is Apply without boxing the result: what the store itself
// allocates for a write.
func applyUnboxed(s *Store, a any) {
	switch a := a.(type) {
	case CartUpdateAction:
		s.applyCartUpdate(a)
	case CreateCustomerAction:
		s.applyCreateCustomer(a)
	case RefreshSessionAction:
		s.applyRefreshSession(a)
	case BuyConfirmAction:
		s.applyBuyConfirm(a)
	case AdminUpdateAction:
		s.applyAdminUpdate(a)
	case InventorySweepAction:
		s.applyInventorySweep(a)
	default:
		panic(fmt.Sprintf("applyUnboxed: %T", a))
	}
}

// TestApplyAllocBudget: a write allocates no row it keeps. Customers,
// addresses, orders and their lines, and the head copies the first write
// after a capture stores, are carved from the store's slabs, so a write pays
// a share of an array for each: 1/63 for an order, 1/186 for an item head.
// A cart update keeps its one allocation, the cart's new lines slice (see
// Store). Measured over whole slab arrays (writeCosts) without the result
// boxes, which are Apply's; each budget is the measured figure plus a margin
// far below one allocation, which any row allocated on its own exceeds.
func TestApplyAllocBudget(t *testing.T) {
	budgets := map[string]float64{
		"RefreshSession":               0.02,
		"RefreshSession, second write": 0,
		"BuyConfirm per item line":     0.02,
		// The order's and the customer head's shares, with a page of the
		// orders table per 256 orders and the best-sellers cache's new map
		// per 100: 0.040.
		"BuyConfirm per order":                  0.05,
		"InventorySweep per item":               0.02,
		"InventorySweep per item, second write": 0,
		// The item head's share; relatedFromOrders' count map stays on the
		// stack (see TestApplyByteBudget).
		"AdminUpdate":              0.02,
		"CreateCustomer":           0.05,
		"CartUpdate adding a line": 1.05,
	}
	for _, c := range writeCosts(applyUnboxed) {
		budget := budgets[c.what]
		t.Logf("%s: %.4f allocs (budget %g)", c.what, c.allocs, budget)
		if c.allocs > budget {
			t.Errorf("%s: %.7f allocations per write, budget %g", c.what, c.allocs, budget)
		}
	}
}
