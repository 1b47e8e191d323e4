package tpcw

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// populationDigest hashes every row of a population as a reader sees it —
// countries, authors, items, customers and orders through their views,
// addresses as stored — in ID order.
func populationDigest(s *Store) string {
	h := sha256.New()
	put := func(v any) { fmt.Fprintf(h, "%+v\n", v) }
	for _, c := range s.cat.countries {
		put(c)
	}
	for id := AuthorID(1); ; id++ {
		a, ok := s.GetAuthor(id)
		if !ok {
			break
		}
		put(a)
	}
	for id := range s.items.all() {
		it, _ := s.GetBook(id)
		put(it)
	}
	for id := range s.customers.all() {
		c, _ := s.GetCustomerByID(id)
		put(c)
	}
	for _, ad := range s.addresses.all() {
		// Column by column: the digest holds what an address stores, not
		// the order its record lays the columns out in.
		fmt.Fprintf(h, "%d %q %q %q %q %q %d\n", ad.ID, ad.Street1, ad.Street2, ad.City, ad.State, ad.Zip, ad.Country)
	}
	for id := range s.orders.all() {
		o, _ := s.GetOrder(id)
		put(o)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPopulationIsUnchanged pins the paper population row for row: how the
// store lays a row out may change, what it holds may not.
func TestPopulationIsUnchanged(t *testing.T) {
	const want = "97dab7fb8ed1639c5d4c14dcafada480bb4ce31e740d7d2b2925a2fc2384abf0"
	if got := populationDigest(Populate(paperPopulation)); got != want {
		t.Errorf("population digest %s, want %s", got, want)
	}
}

// TestPopulateBudget: the paper population spells each text value its rows
// repeat once and the rest into arena chunks (loader), and carves its rows
// from slabs: 4,202 objects and 26.4 MB. A string per street, city and last
// name took 559.7k objects and 35.4 MB; a string per value of a row's own,
// looked up in maps, 218k and 27.8 MB.
func TestPopulateBudget(t *testing.T) {
	bytes, objects := allocated(func() { Populate(paperPopulation) })
	t.Logf("Populate: %d objects, %.1f MB", objects, float64(bytes)/1e6)
	if objects > 4_600 {
		t.Errorf("Populate allocated %d objects, budget 4,600", objects)
	}
	if bytes > 29e6 {
		t.Errorf("Populate allocated %.1f MB, budget 29", float64(bytes)/1e6)
	}
}

// TestStampsKeepInstants: a stamp reads back the instant it was taken from,
// in UTC — the zero time, the simulator's epoch (a different instant), a
// birthday before 1970 and an instant given in another zone — and the store
// hands each back where a view reads it.
func TestStampsKeepInstants(t *testing.T) {
	epoch := time.Unix(0, 0)
	birthday := time.Date(1893, 3, 4, 0, 0, 0, 0, time.UTC)
	zoned := time.Date(2009, 6, 1, 12, 0, 0, 7, time.FixedZone("UTC-3", -3*3600))
	for _, at := range []time.Time{{}, epoch, birthday, zoned, now()} {
		got := stampOf(at).time()
		if !got.Equal(at) || got.IsZero() != at.IsZero() {
			t.Errorf("%v reads back as %v", at, got)
		}
		if !at.IsZero() && got.Location() != time.UTC {
			t.Errorf("%v reads back in %v", at, got.Location())
		}
	}
	if stampOf(time.Time{}) == stampOf(epoch) {
		t.Error("the zero time and the epoch share a stamp")
	}
	if stampOf(epoch) >= stampOf(zoned) || stampOf(birthday) >= stampOf(epoch) {
		t.Error("stamps do not order as their instants")
	}

	s := testStore()
	reg := s.Apply(CreateCustomerAction{FName: "F", LName: "L", Street1: "S", City: "C",
		State: "ST", Zip: "Z", Country: 1, BirthDate: birthday, Now: zoned}).(CreateCustomerResult)
	c, _ := s.GetCustomerByID(reg.Customer)
	if !c.BirthDate.Equal(birthday) || !c.Since.Equal(zoned) || !c.Login.Equal(zoned) ||
		!c.Expiration.Equal(zoned.Add(2*time.Hour)) || c.Since.Location() != time.UTC {
		t.Errorf("customer reads born %v, since %v, login %v, expiring %v", c.BirthDate, c.Since, c.Login, c.Expiration)
	}
	cart := s.Apply(CartUpdateAction{AddItem: 1, AddQty: 1, Now: epoch}).(CartResult).Cart
	if !cart.Time.Equal(epoch) || cart.Time.IsZero() {
		t.Errorf("a cart updated at the epoch reads %v", cart.Time)
	}
	// No card expiry, as the live command's buy-confirms carry none.
	buy := s.Apply(BuyConfirmAction{Cart: cart.ID, Customer: reg.Customer, ShipDate: zoned, Now: epoch}).(BuyConfirmResult)
	o, _ := s.GetOrder(buy.Order)
	if !o.CC.Expire.IsZero() || !o.Date.Equal(epoch) || o.Date.IsZero() || !o.ShipDate.Equal(zoned) || !o.CC.ShipAt.Equal(zoned) {
		t.Errorf("order reads dated %v, shipped %v and %v, card expiring %v", o.Date, o.ShipDate, o.CC.ShipAt, o.CC.Expire)
	}
}

// TestStoredRowsHoldNoTime: every row type a store keeps, down to what its
// fields point to, holds its instants as stamps; only the catalog, which no
// action writes, holds a time.Time (an author's birth date).
func TestStoredRowsHoldNoTime(t *testing.T) {
	timeType := reflect.TypeOf(time.Time{})
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if ty == timeType {
			t.Errorf("%s is a time.Time", path)
			return
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(path, ty.Elem())
		case reflect.Map:
			walk(path, ty.Key())
			walk(path, ty.Elem())
		}
	}
	store := reflect.TypeOf(Store{})
	for i := 0; i < store.NumField(); i++ {
		if f := store.Field(i); f.Type != reflect.TypeOf(&catalog{}) {
			walk("Store."+f.Name, f.Type)
		}
	}
	for _, payload := range []any{storeSnap{}, DeltaSnap{}, PartitionSnap{}} {
		ty := reflect.TypeOf(payload)
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.Type != reflect.TypeOf(&catalog{}) {
				walk(ty.Name()+"."+f.Name, f.Type)
			}
		}
	}
	for _, row := range []any{orderRow{}, cartRow{}, itemBody{}, customerRow{}} {
		if !seen[reflect.TypeOf(row)] {
			t.Errorf("the walk did not reach %T", row)
		}
	}
}
