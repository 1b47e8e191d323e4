package tpcw

import (
	"sort"
	"strconv"
	"strings"
)

// This file implements the read-only facade operations behind the TPC-W
// browsing interactions. Reads are served locally by each replica without
// total ordering (paper §5.2), so these are plain methods.

// GetBook returns an item by id.
func (s *Store) GetBook(id ItemID) (Item, bool) {
	item, ok := s.items.get(id)
	if !ok {
		return Item{}, false
	}
	return item.item(), true
}

// BookAuthor returns the author of item id, read from the stored row: the
// exact lookup of a page that lists or shows the item, which needs no Item
// view (GetBook assembles one, 264 B).
func (s *Store) BookAuthor(id ItemID) (AuthorID, bool) {
	h, ok := s.items.get(id)
	if !ok {
		return 0, false
	}
	return h.Author, true
}

// GetAuthor returns an author by id.
func (s *Store) GetAuthor(id AuthorID) (Author, bool) {
	a, ok := s.cat.authors[id]
	return a, ok
}

// customerNamed returns the head of the customer whose user name is uname
// (TPC-W getCustomer). User names are derived from the ID (UserName), so the
// lookup parses the ID back out and accepts only the spelling UserName gives
// it, compared in a stack buffer: it allocates nothing.
func (s *Store) customerNamed(uname string) (*customerHead, bool) {
	id, err := strconv.ParseInt(strings.TrimPrefix(uname, "C"), 10, 32)
	if err != nil {
		return nil, false
	}
	var buf [16]byte
	if string(appendUserName(buf[:0], CustomerID(id))) != uname {
		return nil, false
	}
	return s.customers.get(CustomerID(id))
}

// GetCustomerByID returns a customer by id.
func (s *Store) GetCustomerByID(id CustomerID) (Customer, bool) {
	c, ok := s.customers.get(id)
	if !ok {
		return Customer{}, false
	}
	return c.customer(), true
}

// UserID returns the ID of the customer whose user name is uname, the
// inverse of UserName (TPC-W getCustomer's lookup; see customerNamed).
func (s *Store) UserID(uname string) (CustomerID, bool) {
	c, ok := s.customerNamed(uname)
	if !ok {
		return 0, false
	}
	return c.ID, true
}

// GetCart returns a shopping cart.
func (s *Store) GetCart(id CartID) (Cart, bool) {
	c, ok := s.carts.get(id)
	return c.cart(), ok // a missing cart's zero row is the zero Cart
}

// GetOrder returns an order.
func (s *Store) GetOrder(id OrderID) (Order, bool) {
	o, ok := s.orders.get(id)
	if !ok {
		return Order{}, false
	}
	return o.order(), true
}

// MostRecentOrder returns the ID of customer c's latest order (TPC-W
// getMostRecentOrder, the order-inquiry/display interactions), found by
// index without copying the order out; GetOrder reads it.
func (s *Store) MostRecentOrder(c CustomerID) (OrderID, bool) {
	oid, ok := s.lastOrder.get(c)
	if !ok || !s.orders.has(oid) {
		return 0, false
	}
	return oid, true
}

// GetRelated returns the related items of a book (TPC-W getRelated).
func (s *Store) GetRelated(id ItemID) ([5]ItemID, bool) {
	item, ok := s.items.get(id)
	if !ok {
		return [5]ItemID{}, false
	}
	return item.Related, true
}

// SearchKind selects the TPC-W search type.
type SearchKind int

// The three TPC-W search types.
const (
	SearchByAuthor SearchKind = iota + 1
	SearchByTitle
	SearchBySubject
)

// searchLimit is the TPC-W result page size.
const searchLimit = 50

// DoSearch implements the search-results interaction for the three TPC-W
// search types. Matching is by lowercase token for author and title and
// by exact subject, over the immutable catalog indexes.
func (s *Store) DoSearch(kind SearchKind, term string) []ItemID {
	term = strings.ToLower(strings.TrimSpace(term))
	var ids []ItemID
	switch kind {
	case SearchByAuthor:
		ids = s.cat.authorIndex[term]
	case SearchByTitle:
		ids = s.cat.titleIndex[term]
	case SearchBySubject:
		ids = s.cat.bySubject[canonicalSubject(term)]
	}
	if len(ids) > searchLimit {
		ids = ids[:searchLimit]
	}
	return ids
}

// GetNewProducts returns the 50 newest items of a subject (TPC-W
// getNewProducts). The catalog is immutable, so the ranking is
// precomputed.
func (s *Store) GetNewProducts(subject string) []ItemID {
	return s.cat.newBySubject[canonicalSubject(subject)]
}

// GetBestSellers returns the TPC-W best-sellers page for a subject: the
// 50 items of that subject with the highest quantity sold across the 3333
// most recent orders. Rankings are cached and refreshed as orders arrive;
// a cache miss re-ranks only the subject's slice of the window via the
// bsBySubject index rather than rescanning all of bsQty and probing every
// item for its subject.
func (s *Store) GetBestSellers(subject string) []BestSeller {
	subject = canonicalSubject(subject)
	if s.bsCache == nil {
		s.bsCache = make(map[string][]BestSeller)
	}
	if cached, ok := s.bsCache[subject]; ok {
		return cached
	}
	if s.bsBySubject == nil {
		s.rebuildBSIndex()
	}
	byItem := s.bsBySubject[subject]
	ranked := make([]BestSeller, 0, len(byItem))
	for iid, q := range byItem {
		ranked = append(ranked, BestSeller{Item: iid, Qty: q})
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
	s.bsCache[subject] = ranked
	return ranked
}

// rebuildBSIndex derives bsBySubject from bsQty from scratch (after a
// restore dropped it, or on the first query).
func (s *Store) rebuildBSIndex() {
	s.bsBySubject = make(map[string]map[ItemID]int64)
	for iid, q := range s.bsQty.all() {
		item, ok := s.items.get(iid)
		if !ok {
			continue
		}
		m := s.bsBySubject[item.Subject]
		if m == nil {
			m = make(map[ItemID]int64)
			s.bsBySubject[item.Subject] = m
		}
		m[iid] = q
	}
}

// bsIndexSync mirrors one item's current bsQty entry into bsBySubject
// (insert, update, or removal). No-op while the index has not been built;
// item subjects are immutable, so the subject bucket never moves.
func (s *Store) bsIndexSync(iid ItemID) {
	if s.bsBySubject == nil {
		return
	}
	item, ok := s.items.get(iid)
	if !ok {
		return
	}
	m := s.bsBySubject[item.Subject]
	if q, live := s.bsQty.get(iid); live {
		if m == nil {
			m = make(map[ItemID]int64)
			s.bsBySubject[item.Subject] = m
		}
		m[iid] = q
	} else if m != nil {
		delete(m, iid)
	}
}

// VerifyConsistency checks internal invariants; it returns a non-empty
// list of violations if the state is corrupt. Used by tests and the
// consistency checks after fault experiments.
func (s *Store) VerifyConsistency() []string {
	// The violation list is truncated to 8 entries and compared across
	// replicas by tests; the tables iterate in ID order, so it is the same
	// list everywhere.
	var bad []string
	var name [16]byte
	for id, c := range s.customers.all() {
		if c.ID != id {
			bad = append(bad, "customer id mismatch")
		}
		if got, ok := s.customerNamed(string(appendUserName(name[:0], id))); !ok || got != c {
			bad = append(bad, "customer not found under its uname")
		}
		if !s.addresses.has(c.Addr) {
			bad = append(bad, "customer with dangling address")
		}
	}
	for id, o := range s.orders.all() {
		if o.ID != id {
			bad = append(bad, "order id mismatch")
		}
		if !s.customers.has(o.Customer) {
			bad = append(bad, "order with dangling customer")
		}
		if len(o.Lines) == 0 {
			bad = append(bad, "order without lines")
		}
		want := o.SubTotal + o.Tax + shippingCost(len(o.Lines))
		if diff := o.Total - want; diff > 1e-6 || diff < -1e-6 {
			bad = append(bad, "order total mismatch")
		}
	}
	for _, item := range s.items.all() {
		if item.Stock < 0 {
			bad = append(bad, "negative stock")
		}
	}
	if len(bad) > 8 {
		bad = bad[:8]
	}
	return bad
}
