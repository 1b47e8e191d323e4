package tpcw

import (
	"fmt"
	"strconv"
	"time"
)

// This file defines the write actions of the bookstore — the deterministic
// transformations of the original SQL transactions (paper §4, task II).
// Every field that a centralized implementation would obtain from the
// clock or a random number generator is a parameter, filled in by the
// caller before the action is submitted for total ordering.

// CartUpdateAction adds an item to a cart and/or updates line quantities
// (TPC-W addItem / refreshCart). Cart 0 creates a new cart first, making
// the shopping-cart interaction a single atomic action as in the original
// SQL transaction. If the cart would remain empty and RandomItem is set,
// that item is added — the "add random item if necessary" rule with the
// randomness resolved by the caller.
type CartUpdateAction struct {
	Cart       CartID
	AddItem    ItemID // 0 = none
	AddQty     int32
	SetLines   []CartLine // quantity updates; qty 0 removes the line
	RandomItem ItemID     // caller-chosen fallback item
	Now        time.Time
}

// CreateCustomerAction registers a new customer (TPC-W
// createNewCustomer). Discount is the caller-drawn random discount.
type CreateCustomerAction struct {
	FName     string
	LName     string
	Street1   string
	Street2   string
	City      string
	State     string
	Zip       string
	Country   CountryID
	Phone     string
	Email     string
	BirthDate time.Time
	Data      string
	Discount  float64
	Now       time.Time
}

// RefreshSessionAction updates a customer's login/expiration times (TPC-W
// refreshSession).
type RefreshSessionAction struct {
	Customer CustomerID
	Now      time.Time
}

// BuyConfirmAction turns a cart into an order (TPC-W doBuyConfirm): order
// plus order lines plus credit-card transaction, with the TPC-W stock
// rule (decrement; if the result drops below 10, restock by 21).
type BuyConfirmAction struct {
	Cart     CartID
	Customer CustomerID
	CCType   string
	CCNum    string
	CCName   string
	CCExpire time.Time
	ShipType string
	ShipDate time.Time // caller-computed: Now + random 1..7 days
	Comment  string
	Now      time.Time
}

// AdminUpdateAction is the admin confirm interaction (TPC-W adminUpdate):
// update an item's cost and images and recompute its related items from
// co-purchases in recent orders.
type AdminUpdateAction struct {
	Item      ItemID
	Cost      float64
	Image     string
	Thumbnail string
	Now       time.Time
}

// Results.

// CreateCustomerResult returns the new customer's identity. The user name
// is UserName(Customer).
type CreateCustomerResult struct {
	Customer CustomerID
}

// BuyConfirmResult returns the new order's identity and totals.
type BuyConfirmResult struct {
	Order OrderID
	Total float64
	Err   string // non-empty when the cart or customer is unknown
}

// CartResult returns the cart after an update.
type CartResult struct {
	Cart Cart
	Err  string
}

// Apply executes one action deterministically and returns its result. It
// implements the Execute half of core.StateMachine for the bookstore.
func (s *Store) Apply(action any) any {
	switch a := action.(type) {
	case CartUpdateAction:
		return s.applyCartUpdate(a)
	case CreateCustomerAction:
		return s.applyCreateCustomer(a)
	case RefreshSessionAction:
		return s.applyRefreshSession(a)
	case BuyConfirmAction:
		return s.applyBuyConfirm(a)
	case AdminUpdateAction:
		return s.applyAdminUpdate(a)
	case GiftAction:
		return s.applyGift(a)
	case InventorySweepAction:
		return s.applyInventorySweep(a)
	default:
		return fmt.Errorf("tpcw: unknown action %T", action)
	}
}

// ActionSize models the serialized size in bytes of an action, for
// network/disk accounting.
func ActionSize(action any) int64 {
	switch a := action.(type) {
	case CartUpdateAction:
		return 72 + int64(len(a.SetLines))*12
	case CreateCustomerAction:
		return 220
	case RefreshSessionAction:
		return 40
	case BuyConfirmAction:
		return 160
	case AdminUpdateAction:
		return 96
	case GiftAction:
		var n int64
		if a.Parts&GiftDebit != 0 {
			n += 72
		}
		if a.Parts&GiftDeliver != 0 {
			n += 112 + int64(len(a.Lines))*24
		}
		return n
	case InventorySweepAction:
		return 56 + int64(len(a.Items))*8
	default:
		return 64
	}
}

func (s *Store) applyCartUpdate(a CartUpdateAction) CartResult {
	cart, ok := s.carts.get(a.Cart)
	if !ok {
		// Cart 0 means "create"; a non-zero unknown cart (consumed by an
		// earlier purchase whose reply was lost, or expired) is
		// recreated when the interaction carries a fallback item, as
		// the TPC-W shopping-cart page does. Without a fallback the
		// caller gets an error.
		if a.Cart != 0 && a.AddItem == 0 && a.RandomItem == 0 {
			return CartResult{Err: "no such cart"}
		}
		s.nextCart++
		cart = cartRow{ID: s.nextCart}
		s.nominalBytes += nominalCart
	}
	if a.AddItem != 0 {
		if s.items.has(a.AddItem) {
			qty := a.AddQty
			if qty <= 0 {
				qty = 1
			}
			cart = cartAdd(cart, a.AddItem, qty)
			s.nominalBytes += nominalCartLine
		}
	}
	for _, set := range a.SetLines {
		cart = cartSet(cart, set.Item, set.Qty)
	}
	if len(cart.Lines) == 0 && a.RandomItem != 0 {
		if s.items.has(a.RandomItem) {
			cart = cartAdd(cart, a.RandomItem, 1)
			s.nominalBytes += nominalCartLine
		}
	}
	cart.Time = stampOf(a.Now)
	s.carts.set(cart.ID, cart)
	return CartResult{Cart: cart.cart()}
}

func cartAdd(c cartRow, item ItemID, qty int32) cartRow {
	for i := range c.Lines {
		if c.Lines[i].Item == item {
			lines := append([]CartLine(nil), c.Lines...)
			lines[i].Qty += qty
			c.Lines = lines
			return c
		}
	}
	lines := make([]CartLine, len(c.Lines), len(c.Lines)+1)
	copy(lines, c.Lines)
	c.Lines = append(lines, CartLine{Item: item, Qty: qty})
	return c
}

func cartSet(c cartRow, item ItemID, qty int32) cartRow {
	lines := make([]CartLine, 0, len(c.Lines))
	for _, l := range c.Lines {
		if l.Item == item {
			if qty > 0 {
				lines = append(lines, CartLine{Item: item, Qty: qty})
			}
			continue
		}
		lines = append(lines, l)
	}
	c.Lines = lines
	return c
}

func (s *Store) applyCreateCustomer(a CreateCustomerAction) CreateCustomerResult {
	addr := s.addAddress(a.Street1, a.Street2, a.City, a.State, a.Zip, a.Country)
	s.nextCustomer++
	id := s.nextCustomer
	s.addCustomer(customerBody{
		ID:        id,
		FName:     a.FName,
		LName:     a.LName,
		Addr:      addr,
		Phone:     a.Phone,
		Email:     a.Email,
		Since:     stampOf(a.Now),
		Discount:  a.Discount,
		BirthDate: stampOf(a.BirthDate),
		Data:      a.Data,
	}, a.Now)
	return CreateCustomerResult{Customer: id}
}

// The constructors below are the one place each kind of row is built; the
// records come from the store's slabs (see rows).

// addCustomer stores customer b.ID: body b and a first head logged in at
// login, carved as one record.
func (s *Store) addCustomer(b customerBody, login time.Time) {
	r := s.rows.customers.Next()
	r.body = b
	r.head = customerHead{LastLogin: stampOf(login), Login: stampOf(login), Expiration: stampOf(login.Add(sessionLength))}
	s.customers.set(b.ID, r.link())
	s.nominalBytes += nominalCustomer
}

// addAddress stores an address under the next address ID and returns it.
func (s *Store) addAddress(st1, st2, city, state, zip string, country CountryID) AddressID {
	s.nextAddress++
	id := s.nextAddress
	if int(country) < 1 || int(country) > len(s.cat.countries) {
		country = 1
	}
	a := s.rows.addresses.Next()
	*a = Address{
		ID: id, Country: country, Street1: st1, Street2: st2, City: city,
		State: state, Zip: zip,
	}
	s.addresses.set(id, a)
	s.nominalBytes += nominalAddress
	return id
}

// addOrder stores o (storeOrder), admits it to the best-sellers window and
// returns its ID.
func (s *Store) addOrder(o orderRow) OrderID {
	rec := s.storeOrder(o)
	s.pushRecentOrder(rec)
	return rec.ID
}

// storeOrder stores o under the next order ID as the latest order of
// o.Customer and returns the stored row. Its lines come from orderLines or,
// for a gift, from the action that carries them.
func (s *Store) storeOrder(o orderRow) *orderRow {
	s.nextOrder++
	o.ID = s.nextOrder
	rec := s.rows.orders.Next()
	*rec = o
	s.orders.set(o.ID, rec)
	s.lastOrder.set(o.Customer, o.ID)
	return rec
}

// orderLines returns room for n order lines, empty, for the caller to append
// to. Room it leaves unused is never handed out again.
func (s *Store) orderLines(n int) []OrderLine { return s.rows.lines.Carve(n)[:0] }

func (s *Store) applyRefreshSession(a RefreshSessionAction) any {
	c, ok := s.customers.edit(a.Customer, s.cloneCustomer)
	if !ok {
		return nil
	}
	c.LastLogin = c.Login
	c.Login = stampOf(a.Now)
	c.Expiration = stampOf(a.Now.Add(sessionLength))
	return nil
}

// sessionLength is how long after a login a session expires.
const sessionLength = 2 * time.Hour

// taxRate is the fixed TPC-W sales tax.
const taxRate = 0.0825

func (s *Store) applyBuyConfirm(a BuyConfirmAction) BuyConfirmResult {
	cart, ok := s.carts.get(a.Cart)
	if !ok || len(cart.Lines) == 0 {
		return BuyConfirmResult{Err: "empty or unknown cart"}
	}
	cust, ok := s.customers.get(a.Customer)
	if !ok {
		return BuyConfirmResult{Err: "unknown customer"}
	}

	var subTotal float64
	lines := s.orderLines(len(cart.Lines))
	for _, cl := range cart.Lines {
		h, ok := s.items.edit(cl.Item, s.cloneItem)
		if !ok {
			continue
		}
		subTotal += h.Cost * float64(cl.Qty) * (1 - cust.Discount/100)
		lines = append(lines, OrderLine{
			Item:     cl.Item,
			Qty:      cl.Qty,
			Discount: cust.Discount,
			Comments: a.Comment,
		})
		// TPC-W stock rule.
		h.Stock -= cl.Qty
		if h.Stock < 10 {
			h.Stock += 21
		}
	}
	if len(lines) == 0 {
		return BuyConfirmResult{Err: "no valid items"}
	}
	tax := subTotal * taxRate
	total := subTotal + tax + shippingCost(len(lines))

	billAddr, _ := s.addresses.get(cust.Addr)
	oid := s.addOrder(orderRow{
		Customer: a.Customer,
		Date:     stampOf(a.Now),
		SubTotal: subTotal,
		Tax:      tax,
		Total:    total,
		ShipType: a.ShipType,
		ShipDate: stampOf(a.ShipDate),
		Status:   "PENDING",
		BillAddr: cust.Addr,
		ShipAddr: cust.Addr,
		Lines:    lines,
		CC: ccRow{
			Type:    a.CCType,
			Num:     a.CCNum,
			Name:    a.CCName,
			Expire:  stampOf(a.CCExpire),
			Total:   total,
			ShipAt:  stampOf(a.ShipDate),
			Country: billAddr.Country,
		},
	})
	s.nominalBytes += nominalOrder + nominalCC + int64(len(lines))*nominalLine

	// The purchased cart is consumed.
	s.carts.delete(a.Cart)
	s.nominalBytes -= nominalCart + int64(len(cart.Lines))*nominalCartLine

	paid, _ := s.customers.edit(a.Customer, s.cloneCustomer)
	paid.Balance += total
	paid.YTDPmt += total

	return BuyConfirmResult{Order: oid, Total: total}
}

// shippingCost mirrors TPC-W's flat-plus-per-item shipping charge.
func shippingCost(items int) float64 { return 3.0 + float64(items)*1.0 }

// pushRecentOrder admits an order to the best-sellers window, maintaining
// the rolling quantity aggregate incrementally.
func (s *Store) pushRecentOrder(o *orderRow) {
	s.recentOrders = append(s.recentOrders, o.ID)
	for _, l := range o.Lines {
		q, _ := s.bsQty.get(l.Item)
		s.bsQty.set(l.Item, q+int64(l.Qty))
		s.bsIndexSync(l.Item)
	}
	if len(s.recentOrders) > bestSellerWindow {
		evicted := s.recentOrders[0]
		s.recentOrders = s.recentOrders[1:]
		if old, ok := s.orders.get(evicted); ok {
			for _, l := range old.Lines {
				if q, _ := s.bsQty.get(l.Item); q > int64(l.Qty) {
					s.bsQty.set(l.Item, q-int64(l.Qty))
				} else {
					s.bsQty.delete(l.Item)
				}
				s.bsIndexSync(l.Item)
			}
		}
	}
	s.ordersSinceBS++
	if s.ordersSinceBS >= bestSellerRefresh {
		s.ordersSinceBS = 0
		s.bsCache = make(map[string][]BestSeller)
	}
}

func (s *Store) applyAdminUpdate(a AdminUpdateAction) any {
	h, ok := s.items.edit(a.Item, s.cloneItem)
	if !ok {
		return nil
	}
	h.Cost = a.Cost
	h.Image = a.Image
	h.Thumbnail = a.Thumbnail
	// Recompute related items from co-purchases in the recent-order
	// window (deterministic: ordered scan, stable tie-break by item id).
	h.Related = s.relatedFromOrders(a.Item)
	return nil
}

// relatedFromOrders finds the five items most frequently bought together
// with the given item over the recent-order window.
func (s *Store) relatedFromOrders(id ItemID) [5]ItemID {
	counts := make(map[ItemID]int)
	for _, oid := range s.recentOrders {
		order, ok := s.orders.get(oid)
		if !ok {
			continue
		}
		has := false
		for _, l := range order.Lines {
			if l.Item == id {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for _, l := range order.Lines {
			if l.Item != id {
				counts[l.Item]++
			}
		}
	}
	var related [5]ItemID
	for slot := 0; slot < 5; slot++ {
		best := ItemID(0)
		bestN := 0
		for iid, n := range counts {
			if n > bestN || (n == bestN && n > 0 && iid < best) {
				best, bestN = iid, n
			}
		}
		if best == 0 {
			// Fall back to catalog neighbours so the page always has
			// five entries, as in the reference implementation.
			next := (int32(id)+int32(slot))%s.cat.itemCount + 1
			related[slot] = ItemID(next)
			continue
		}
		related[slot] = best
		delete(counts, best)
	}
	return related
}

// UserName is the user name of customer id: "C" and the ID in decimal. The
// store derives it instead of storing it, and looks a name up by parsing
// the ID back out (customerNamed).
func UserName(id CustomerID) string {
	var buf [16]byte
	return string(appendUserName(buf[:0], id))
}

func appendUserName(dst []byte, id CustomerID) []byte {
	return strconv.AppendInt(append(dst, 'C'), int64(id), 10)
}

// customerPasswd is the password of customer id, derived like its name.
func customerPasswd(id CustomerID) string {
	return "pw" + strconv.FormatInt(int64(id), 10)
}
