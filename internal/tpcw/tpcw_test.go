package tpcw

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"robuststore/internal/xrand"
)

func testStore() *Store {
	return Populate(PopConfig{Items: 800, EBs: 1, Reduction: 8, Seed: 42})
}

func TestPopulationCounts(t *testing.T) {
	s := testStore()
	items, customers, orders, carts := s.Counts()
	if items != 800/8 {
		t.Errorf("items = %d, want %d", items, 800/8)
	}
	if customers != 2880/8 {
		t.Errorf("customers = %d, want %d", customers, 2880/8)
	}
	if orders != 2880*9/10/8 {
		t.Errorf("orders = %d, want %d", orders, 2880*9/10/8)
	}
	if carts != 0 {
		t.Errorf("carts = %d, want 0", carts)
	}
	if bad := s.VerifyConsistency(); len(bad) > 0 {
		t.Errorf("fresh population inconsistent: %v", bad)
	}
}

func TestNominalStateSizesMatchPaper(t *testing.T) {
	// Paper §5.1: 10,000 items with 30/50/70 EBs produce initial states
	// of roughly 300/500/700 MB.
	cases := []struct {
		ebs    int
		wantMB float64
	}{
		{30, 300},
		{50, 500},
		{70, 700},
	}
	for _, tc := range cases {
		cfg := PopConfig{Items: 10000, EBs: tc.ebs, Reduction: 64, Seed: 1}
		s := Populate(cfg)
		gotMB := float64(s.NominalBytes()) / 1e6
		if gotMB < tc.wantMB*0.85 || gotMB > tc.wantMB*1.15 {
			t.Errorf("EBs=%d: nominal state = %.0f MB, want ≈%.0f MB",
				tc.ebs, gotMB, tc.wantMB)
		}
	}
}

func TestDeterministicPopulation(t *testing.T) {
	a := testStore()
	b := testStore()
	sa, _ := a.Snapshot()
	sb, _ := b.Snapshot()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same-seed populations differ")
	}
}

func now() time.Time { return time.Date(2009, 6, 1, 12, 0, 0, 0, time.UTC) }

func TestCartLifecycle(t *testing.T) {
	s := testStore()
	cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
	if cart == 0 {
		t.Fatal("no cart id")
	}
	cr := s.Apply(CartUpdateAction{Cart: cart, AddItem: 3, AddQty: 2, Now: now()}).(CartResult)
	if cr.Err != "" || len(cr.Cart.Lines) != 1 || cr.Cart.Lines[0].Qty != 2 {
		t.Fatalf("add item: %+v", cr)
	}
	// Adding the same item accumulates quantity.
	cr = s.Apply(CartUpdateAction{Cart: cart, AddItem: 3, AddQty: 1, Now: now()}).(CartResult)
	if cr.Cart.Lines[0].Qty != 3 {
		t.Fatalf("qty = %d, want 3", cr.Cart.Lines[0].Qty)
	}
	// Setting quantity to zero removes the line; the random fallback
	// item then repopulates the cart.
	cr = s.Apply(CartUpdateAction{
		Cart: cart, SetLines: []CartLine{{Item: 3, Qty: 0}},
		RandomItem: 7, Now: now(),
	}).(CartResult)
	if len(cr.Cart.Lines) != 1 || cr.Cart.Lines[0].Item != 7 {
		t.Fatalf("fallback item: %+v", cr.Cart)
	}
}

func TestBuyConfirmCreatesOrderAndAppliesStockRule(t *testing.T) {
	s := testStore()
	cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
	itemBefore, _ := s.GetBook(5)
	s.Apply(CartUpdateAction{Cart: cart, AddItem: 5, AddQty: 2, Now: now()})

	cust, _ := s.GetCustomerByID(1)
	res := s.Apply(BuyConfirmAction{
		Cart: cart, Customer: 1, CCType: "VISA", CCNum: "4111",
		CCName: "X", CCExpire: now().AddDate(1, 0, 0), ShipType: "AIR",
		ShipDate: now().AddDate(0, 0, 3), Now: now(),
	}).(BuyConfirmResult)
	if res.Err != "" || res.Order == 0 {
		t.Fatalf("buy confirm failed: %+v", res)
	}

	order, ok := s.GetOrder(res.Order)
	if !ok {
		t.Fatal("order not stored")
	}
	wantSub := itemBefore.Cost * 2 * (1 - cust.Discount/100)
	if diff := order.SubTotal - wantSub; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("subtotal = %f, want %f", order.SubTotal, wantSub)
	}
	wantTotal := wantSub + wantSub*taxRate + shippingCost(1)
	if diff := order.Total - wantTotal; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("total = %f, want %f", order.Total, wantTotal)
	}

	itemAfter, _ := s.GetBook(5)
	wantStock := itemBefore.Stock - 2
	if wantStock < 10 {
		wantStock += 21
	}
	if itemAfter.Stock != wantStock {
		t.Errorf("stock = %d, want %d", itemAfter.Stock, wantStock)
	}

	// The cart is consumed.
	if _, ok := s.GetCart(cart); ok {
		t.Error("cart survived purchase")
	}
	// The order is visible as the customer's most recent.
	if mr, ok := s.MostRecentOrder(1); !ok || mr != res.Order {
		t.Errorf("most recent order = %v, want %v", mr, res.Order)
	}
	if bad := s.VerifyConsistency(); len(bad) > 0 {
		t.Errorf("inconsistent after purchase: %v", bad)
	}
}

func TestBuyConfirmErrors(t *testing.T) {
	s := testStore()
	res := s.Apply(BuyConfirmAction{Cart: 999, Customer: 1, Now: now()}).(BuyConfirmResult)
	if res.Err == "" {
		t.Error("expected error for unknown cart")
	}
	cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
	res = s.Apply(BuyConfirmAction{Cart: cart, Customer: 1, Now: now()}).(BuyConfirmResult)
	if res.Err == "" {
		t.Error("expected error for empty cart")
	}
	s.Apply(CartUpdateAction{Cart: cart, AddItem: 2, Now: now()})
	res = s.Apply(BuyConfirmAction{Cart: cart, Customer: 99999, Now: now()}).(BuyConfirmResult)
	if res.Err == "" {
		t.Error("expected error for unknown customer")
	}
}

func TestCreateCustomerAndSession(t *testing.T) {
	s := testStore()
	_, before, _, _ := s.Counts()
	res := s.Apply(CreateCustomerAction{
		FName: "New", LName: "Customer", Street1: "1 St", City: "C",
		State: "ST", Zip: "12345", Country: 3, Phone: "555",
		Email: "n@c", BirthDate: now().AddDate(-30, 0, 0),
		Discount: 15, Now: now(),
	}).(CreateCustomerResult)
	if res.Customer == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	_, after, _, _ := s.Counts()
	if after != before+1 {
		t.Errorf("customer count %d, want %d", after, before+1)
	}
	h, ok := s.customerNamed(UserName(res.Customer))
	var got Customer
	if ok {
		got = h.customer()
	}
	if !ok || got.ID != res.Customer || got.Discount != 15 || got.FName != "New" {
		t.Fatalf("lookup by uname: %+v, %v", got, ok)
	}

	later := now().Add(time.Hour)
	s.Apply(RefreshSessionAction{Customer: res.Customer, Now: later})
	got, _ = s.GetCustomerByID(res.Customer)
	if !got.Login.Equal(later) {
		t.Errorf("login = %v, want %v", got.Login, later)
	}
	if !got.LastLogin.Equal(now()) {
		t.Errorf("last login = %v, want %v", got.LastLogin, now())
	}
}

func TestSearchIndexes(t *testing.T) {
	s := testStore()
	info := s.Info()
	if len(info.TitleTokens) == 0 || len(info.AuthorTokens) == 0 {
		t.Fatal("empty vocabulary")
	}
	ids := s.DoSearch(SearchByTitle, info.TitleTokens[0])
	if len(ids) == 0 {
		t.Fatal("title search found nothing")
	}
	for _, id := range ids {
		if _, ok := s.GetBook(id); !ok {
			t.Fatalf("search returned dangling item %d", id)
		}
	}
	ids = s.DoSearch(SearchByAuthor, info.AuthorTokens[0])
	if len(ids) == 0 {
		t.Fatal("author search found nothing")
	}
	book, _ := s.GetBook(ids[0])
	author, _ := s.GetAuthor(book.Author)
	if got := author.LName; got == "" {
		t.Fatal("no author")
	}
	ids = s.DoSearch(SearchBySubject, info.Subjects[0])
	for _, id := range ids {
		book, _ := s.GetBook(id)
		if book.Subject != info.Subjects[0] {
			t.Fatalf("subject search leaked %q", book.Subject)
		}
	}
}

func TestNewProductsSortedByDate(t *testing.T) {
	s := testStore()
	for _, subject := range s.Subjects() {
		ids := s.GetNewProducts(subject)
		if len(ids) > searchLimit {
			t.Fatalf("more than %d new products", searchLimit)
		}
		for i := 1; i < len(ids); i++ {
			a, _ := s.GetBook(ids[i-1])
			b, _ := s.GetBook(ids[i])
			if a.PubDate.Before(b.PubDate) {
				t.Fatalf("new products for %s not newest-first", subject)
			}
		}
	}
}

func TestBestSellersRankedAndCacheRefreshes(t *testing.T) {
	s := testStore()
	var subject string
	var first []BestSeller
	for _, sub := range s.Subjects() {
		if bs := s.GetBestSellers(sub); len(bs) > 1 {
			subject, first = sub, bs
			break
		}
	}
	if subject == "" {
		t.Skip("population too small for multi-entry best sellers")
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Qty < first[i].Qty {
			t.Fatal("best sellers not ranked by quantity")
		}
	}
	// Buy one item massively; after the cache refresh threshold it must
	// lead the ranking.
	target := first[len(first)-1].Item
	for o := 0; o < bestSellerRefresh+1; o++ {
		cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
		s.Apply(CartUpdateAction{Cart: cart, AddItem: target, AddQty: 90, Now: now()})
		res := s.Apply(BuyConfirmAction{
			Cart: cart, Customer: 1, ShipDate: now(), Now: now(),
		}).(BuyConfirmResult)
		if res.Err != "" {
			t.Fatalf("buy failed: %s", res.Err)
		}
	}
	got := s.GetBestSellers(subject)
	if len(got) == 0 || got[0].Item != target {
		t.Fatalf("item %d not leading best sellers after %d purchases", target, bestSellerRefresh+1)
	}
}

// referenceBestSellers is the pre-index ranking: scan the whole rolling
// aggregate and probe every item for its subject. The materialized
// per-subject index must stay observably identical to it.
func referenceBestSellers(s *Store, subject string) []BestSeller {
	subject = canonicalSubject(subject)
	ranked := make([]BestSeller, 0, 64)
	for iid, q := range s.bsQty.all() {
		if item, ok := s.items.get(iid); ok && item.Subject == subject {
			ranked = append(ranked, BestSeller{Item: iid, Qty: q})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Qty != ranked[j].Qty {
			return ranked[i].Qty > ranked[j].Qty
		}
		return ranked[i].Item < ranked[j].Item
	})
	if len(ranked) > searchLimit {
		ranked = ranked[:searchLimit]
	}
	return ranked
}

func TestBestSellersIndexMatchesScan(t *testing.T) {
	s := testStore()
	subjects := s.Subjects()
	// Query every subject up front so the index is built early and the
	// purchase stream below exercises its incremental maintenance — not
	// just the lazy rebuild — including window evictions once the order
	// count crosses bestSellerWindow.
	for _, sub := range subjects {
		s.GetBestSellers(sub)
	}
	check := func(st *Store, context string) {
		t.Helper()
		st.bsCache = nil // force a fresh ranking off the index
		for _, sub := range subjects {
			got := st.GetBestSellers(sub)
			want := referenceBestSellers(st, sub)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: best sellers for %q diverge from the window scan\n got %v\nwant %v",
					context, sub, got, want)
			}
		}
	}
	total := bestSellerWindow + 400
	for i := 0; i < total; i++ {
		cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
		s.Apply(CartUpdateAction{
			Cart: cart, AddItem: ItemID(1 + (i*7)%99), AddQty: int32(1 + i%5), Now: now(),
		})
		res := s.Apply(BuyConfirmAction{
			Cart: cart, Customer: CustomerID(1 + i%50), ShipDate: now(), Now: now(),
		}).(BuyConfirmResult)
		if res.Err != "" {
			t.Fatalf("buy %d failed: %s", i, res.Err)
		}
		if i%500 == 499 {
			check(s, fmt.Sprintf("after %d orders", i+1))
		}
	}
	if len(s.recentOrders) != bestSellerWindow {
		t.Fatalf("window holds %d orders, want %d (evictions never ran)",
			len(s.recentOrders), bestSellerWindow)
	}
	check(s, "final")

	// A restore drops the derived index; its lazy rebuild must agree too.
	snap, _ := s.Snapshot()
	fresh := testStore()
	fresh.Restore(snap)
	check(fresh, "after restore")
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := testStore()
	cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
	s.Apply(CartUpdateAction{Cart: cart, AddItem: 2, AddQty: 1, Now: now()})
	s.Apply(BuyConfirmAction{Cart: cart, Customer: 2, ShipDate: now(), Now: now()})

	snap, size := s.Snapshot()
	if size != s.NominalBytes() {
		t.Errorf("snapshot size %d != nominal %d", size, s.NominalBytes())
	}
	// Mutate the original after snapshotting; the snapshot must be
	// isolated.
	c2 := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
	s.Apply(CartUpdateAction{Cart: c2, AddItem: 9, AddQty: 5, Now: now()})
	s.Apply(BuyConfirmAction{Cart: c2, Customer: 3, ShipDate: now(), Now: now()})

	fresh := testStore()
	fresh.Restore(snap)
	snap2, _ := fresh.Snapshot()
	if !reflect.DeepEqual(snap, snap2) {
		t.Fatal("restore did not reproduce the snapshotted state")
	}
	if bad := fresh.VerifyConsistency(); len(bad) > 0 {
		t.Errorf("restored store inconsistent: %v", bad)
	}
}

// randomActions generates a deterministic action sequence exercising every
// action type.
func randomActions(seed uint64, n int) []any {
	rng := xrand.New(seed)
	actions := make([]any, 0, n)
	var carts []CartID
	nextCart := CartID(0)
	t0 := now()
	for i := 0; i < n; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		switch rng.Intn(6) {
		case 0:
			nextCart++
			carts = append(carts, nextCart)
			actions = append(actions, CartUpdateAction{Now: at})
		case 1, 2:
			if len(carts) == 0 {
				actions = append(actions, CartUpdateAction{Now: at})
				nextCart++
				carts = append(carts, nextCart)
				continue
			}
			actions = append(actions, CartUpdateAction{
				Cart:    carts[rng.Intn(len(carts))],
				AddItem: ItemID(rng.Intn(60) + 1),
				AddQty:  int32(rng.Intn(3) + 1),
				Now:     at,
			})
		case 3:
			if len(carts) == 0 {
				continue
			}
			actions = append(actions, BuyConfirmAction{
				Cart:     carts[rng.Intn(len(carts))],
				Customer: CustomerID(rng.Intn(300) + 1),
				CCType:   "VISA",
				ShipDate: at.AddDate(0, 0, rng.Intn(7)+1),
				Now:      at,
			})
		case 4:
			actions = append(actions, CreateCustomerAction{
				FName: "F", LName: "L", Street1: "S", City: "C",
				State: "ST", Zip: "Z",
				Country:  CountryID(rng.Intn(92) + 1),
				Discount: float64(rng.Intn(51)), Now: at,
			})
		case 5:
			actions = append(actions, AdminUpdateAction{
				Item: ItemID(rng.Intn(60) + 1),
				Cost: 5 + rng.Float64()*50,
				Now:  at,
			})
		}
	}
	return actions
}

// TestReplicaDeterminism is the core RobustStore property (paper §4): two
// replicas applying the same totally ordered action sequence end in
// byte-identical states.
func TestReplicaDeterminism(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		a, b := testStore(), testStore()
		for _, action := range randomActions(seed, 120) {
			ra := a.Apply(action)
			rb := b.Apply(action)
			if !reflect.DeepEqual(ra, rb) {
				return false
			}
		}
		sa, _ := a.Snapshot()
		sb, _ := b.Snapshot()
		return reflect.DeepEqual(sa, sb)
	}, &quick.Config{MaxCount: 12})
	if err != nil {
		t.Fatal(err)
	}
}

// TestConsistencyUnderRandomActions checks the store invariants hold under
// arbitrary action interleavings.
func TestConsistencyUnderRandomActions(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		s := testStore()
		for _, action := range randomActions(seed, 200) {
			s.Apply(action)
		}
		bad := s.VerifyConsistency()
		if len(bad) > 0 {
			t.Logf("violations: %v", bad)
		}
		return len(bad) == 0
	}, &quick.Config{MaxCount: 8})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNominalBytesGrowWithOrders(t *testing.T) {
	s := testStore()
	before := s.NominalBytes()
	for i := 0; i < 50; i++ {
		cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
		s.Apply(CartUpdateAction{Cart: cart, AddItem: ItemID(i%50 + 1), AddQty: 1, Now: now()})
		res := s.Apply(BuyConfirmAction{Cart: cart, Customer: 1, ShipDate: now(), Now: now()}).(BuyConfirmResult)
		if res.Err != "" {
			t.Fatal(res.Err)
		}
	}
	grown := s.NominalBytes() - before
	want := int64(50) * (nominalOrder + nominalCC + nominalLine)
	if grown != want {
		t.Errorf("nominal growth = %d, want %d", grown, want)
	}
}

func TestActionSizePositive(t *testing.T) {
	for _, a := range randomActions(99, 60) {
		if ActionSize(a) <= 0 {
			t.Fatalf("non-positive size for %T", a)
		}
	}
	if ActionSize(struct{}{}) <= 0 {
		t.Fatal("default size must be positive")
	}
}

func TestUnknownActionReturnsError(t *testing.T) {
	s := testStore()
	res := s.Apply("bogus")
	if _, ok := res.(error); !ok {
		t.Fatalf("want error result, got %T", res)
	}
}

func TestGetters(t *testing.T) {
	s := testStore()
	book, ok := s.GetBook(1)
	if !ok {
		t.Error("GetBook(1) missing")
	}
	if _, ok := s.GetBook(1 << 30); ok {
		t.Error("GetBook on bogus id succeeded")
	}
	if id, ok := s.UserID(UserName(1)); !ok || id != 1 {
		t.Errorf("UserID(%q) = %d, %v, want 1", UserName(1), id, ok)
	}
	if id, ok := s.UserID("C1x"); ok {
		t.Errorf("UserID(C1x) = %d", id)
	}
	if a, ok := s.BookAuthor(1); !ok || a != book.Author {
		t.Errorf("BookAuthor(1) = %d, %v, want %d", a, ok, book.Author)
	}
	if _, ok := s.BookAuthor(1 << 30); ok {
		t.Error("BookAuthor on bogus id succeeded")
	}
	rel, ok := s.GetRelated(1)
	if !ok {
		t.Fatal("GetRelated failed")
	}
	for _, r := range rel {
		if _, ok := s.GetBook(r); !ok {
			t.Errorf("related item %d dangling", r)
		}
	}
}

// TestRowViewsCarryEveryColumn: GetBook, GetCustomerByID, GetOrder and
// GetCart assemble every column of Item, Customer, Order and Cart from the
// stored row (an item's or a customer's body or head), where a column of the
// same name holds the same value — an instant as a stamp of it — or derive it
// from the ID: the customer's user name and password, which the row does not
// store.
func TestRowViewsCarryEveryColumn(t *testing.T) {
	s := testStore()
	cart := s.Apply(CartUpdateAction{AddItem: 5, AddQty: 1, Now: now()}).(CartResult).Cart.ID
	order := s.Apply(BuyConfirmAction{Cart: cart, Customer: 2, CCType: "VISA", CCNum: "4111",
		CCName: "N", CCExpire: now().AddDate(2, 0, 0), ShipType: "AIR",
		ShipDate: now().AddDate(0, 0, 3), Now: now()}).(BuyConfirmResult).Order
	s.Apply(RefreshSessionAction{Customer: 2, Now: now()})
	s.Apply(InventorySweepAction{Items: []ItemID{5}, Cost: 3, Tag: "s", Now: now()})
	cart = s.Apply(CartUpdateAction{AddItem: 7, AddQty: 2, Now: now().Add(time.Minute)}).(CartResult).Cart.ID
	item, _ := s.GetBook(5)
	ih, _ := s.items.get(5)
	cust, _ := s.GetCustomerByID(2)
	ch, _ := s.customers.get(2)
	o, _ := s.GetOrder(order)
	or, _ := s.orders.get(order)
	c, _ := s.GetCart(cart)
	cr, _ := s.carts.get(cart)
	derived := map[string]string{"UName": "C2", "Passwd": "pw2"}
	stampType := reflect.TypeOf(stamp(0))
	var columns func(what string, view, row reflect.Value)
	columns = func(what string, view, row reflect.Value) {
		for i := 0; i < view.NumField(); i++ {
			name := what + "." + view.Type().Field(i).Name
			v, col := view.Field(i), row.FieldByName(view.Type().Field(i).Name)
			if want, ok := derived[view.Type().Field(i).Name]; ok && view.Type() == reflect.TypeOf(Customer{}) {
				if got := v.String(); got != want {
					t.Errorf("%s reads %q, want %q", name, got, want)
				}
				if col.IsValid() {
					t.Errorf("the customer row stores %s, a function of its ID", name)
				}
				continue
			}
			switch {
			case !col.IsValid():
				t.Errorf("%s is not in the stored row", name)
			case col.Type() == stampType:
				at := v.Interface().(time.Time)
				if st := stamp(col.Uint()); !at.Equal(st.time()) || st != stampOf(at) || at.IsZero() {
					t.Errorf("%s reads %v, the row holds %v", name, at, st.time())
				}
			case v.Kind() == reflect.Struct:
				columns(name, v, col)
			default:
				if got, want := fmt.Sprint(v), fmt.Sprint(col); got != want {
					t.Errorf("%s reads %s, the row holds %s", name, got, want)
				}
			}
		}
	}
	columns("Item", reflect.ValueOf(item), reflect.ValueOf(ih).Elem())
	columns("Customer", reflect.ValueOf(cust), reflect.ValueOf(ch).Elem())
	columns("Order", reflect.ValueOf(o), reflect.ValueOf(or).Elem())
	columns("Cart", reflect.ValueOf(c), reflect.ValueOf(cr))
}

func BenchmarkApplyBuyConfirm(b *testing.B) {
	s := testStore()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cart := s.Apply(CartUpdateAction{Now: now()}).(CartResult).Cart.ID
		s.Apply(CartUpdateAction{Cart: cart, AddItem: ItemID(i%50 + 1), AddQty: 1, Now: now()})
		s.Apply(BuyConfirmAction{Cart: cart, Customer: CustomerID(i%300 + 1), ShipDate: now(), Now: now()})
	}
}

func BenchmarkPopulate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		Populate(paperPopulation)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	s := Populate(PopConfig{Items: 10000, EBs: 30, Reduction: 8, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, _ := s.Snapshot()
		_ = snap
	}
}

func BenchmarkRestore(b *testing.B) {
	snap, _ := Populate(PopConfig{Items: 10000, EBs: 30, Reduction: 8, Seed: 1}).Snapshot()
	s := &Store{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Restore(snap)
	}
}

func BenchmarkClone(b *testing.B) {
	s := Populate(PopConfig{Items: 10000, EBs: 30, Reduction: 8, Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Clone()
	}
}

func ExampleStore_GetBestSellers() {
	s := Populate(PopConfig{Items: 200, EBs: 1, Reduction: 4, Seed: 7})
	bs := s.GetBestSellers(s.Subjects()[0])
	fmt.Println(len(bs) <= 50)
	// Output: true
}
