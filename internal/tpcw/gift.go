package tpcw

// This file defines the bookstore's multi-shard workloads: cross-session
// gift orders — one customer's cart purchased for a customer homed on
// another shard — and admin inventory sweeps that reprice an item set
// spanning groups. Each is one action type, and the web tier's coordinator
// (internal/webtier) hands it one share per group it touches:
//
//   - a gift's debit part goes to the buyer's group and its delivery part to
//     the recipient's; a sweep's items go to the groups that own them;
//   - a write whose only share lies on the coordinator's own group is
//     submitted like any other action, and any other share is a branch
//     carried inside a core.TxnPrepare record and applied atomically across
//     groups by two-phase commit.
//
// As everywhere in this package, every share is deterministic: the
// coordinator resolves all pricing (GiftQuote) and clock reads before the
// shares are submitted, so the debit and the delivery agree on totals
// without ever reading each other's group.

import "time"

// GiftParts names the parts of a gift order an action applies.
type GiftParts uint8

const (
	// GiftDebit consumes the buyer's cart and charges the buyer Total.
	GiftDebit GiftParts = 1 << iota
	// GiftDeliver creates the recipient's order (with the TPC-W stock rule
	// on its lines) from Lines and the quoted totals.
	GiftDeliver
)

// GiftAction is a gift order: the buyer's cart purchased for a distinct
// receiving customer, with BuyConfirm's atomicity. Parts says which of its
// two parts this action applies. Across groups, each part is one group's
// branch and carries the coordinator's quote (GiftQuote), so the delivery
// never reads the buyer's group. When one group holds both, one action
// applies both and prices the cart again against the state it applies to.
type GiftAction struct {
	Parts     GiftParts
	Cart      CartID
	Buyer     CustomerID
	Recipient CustomerID
	Lines     []OrderLine
	SubTotal  float64
	Tax       float64
	Total     float64
	ShipType  string
	ShipDate  time.Time
	Tag       string // audit tag, stamped on the order lines
	Now       time.Time
}

// InventorySweepAction reprices a set of items to one cost — the admin
// inventory sweep. Its share on each group carries the items that group
// owns; the unique Cost value doubles as the atomicity audit marker (a
// half-applied sweep leaves some groups repriced and others not).
type InventorySweepAction struct {
	Items []ItemID
	Cost  float64
	Tag   string
	Now   time.Time
}

// GiftResult is GiftAction's result: the delivered order and the total
// the buyer paid, or why the gift failed.
type GiftResult struct {
	Order OrderID
	Total float64
	Err   string
}

// InventorySweepResult is InventorySweepAction's result.
type InventorySweepResult struct {
	Updated int
}

// StageTxn implements core.TxnStager: validate a branch action against
// current state without mutating it (the prepare vote): a gift part by the
// rows it needs, a sweep by its items. Unknown actions vote yes — commit
// then surfaces any error in the action's own result.
func (s *Store) StageTxn(action any) string {
	switch a := action.(type) {
	case GiftAction:
		if a.Parts&GiftDebit != 0 {
			cart, ok := s.carts.get(a.Cart)
			if !ok || len(cart.Lines) == 0 {
				return "empty or unknown cart"
			}
			if !s.customers.has(a.Buyer) {
				return "unknown buyer"
			}
		}
		if a.Parts&GiftDeliver != 0 {
			if !s.customers.has(a.Recipient) {
				return "unknown recipient"
			}
			if len(a.Lines) == 0 {
				return "no order lines"
			}
		}
		return ""
	case InventorySweepAction:
		for _, id := range a.Items {
			if !s.items.has(id) {
				return "unknown item"
			}
		}
		return ""
	default:
		return ""
	}
}

// GiftQuote prices a cart for a gift purchase: the order lines (stamped
// with the audit tag), subtotal, tax and total, using the buyer's
// discount — exactly the pricing applyBuyConfirm would compute.
// Read-only; the coordinator calls it once, on the buyer's group, before
// building the shares, so both parts carry identical totals.
func (s *Store) GiftQuote(cart CartID, buyer CustomerID, tag string) (lines []OrderLine, subTotal, tax, total float64, errs string) {
	c, ok := s.carts.get(cart)
	if !ok || len(c.Lines) == 0 {
		return nil, 0, 0, 0, "empty or unknown cart"
	}
	cust, ok := s.customers.get(buyer)
	if !ok {
		return nil, 0, 0, 0, "unknown buyer"
	}
	for _, cl := range c.Lines {
		item, ok := s.items.get(cl.Item)
		if !ok {
			continue
		}
		subTotal += item.Cost * float64(cl.Qty) * (1 - cust.Discount/100)
		lines = append(lines, OrderLine{
			Item:     cl.Item,
			Qty:      cl.Qty,
			Discount: cust.Discount,
			Comments: tag,
		})
	}
	if len(lines) == 0 {
		return nil, 0, 0, 0, "no valid items"
	}
	tax = subTotal * taxRate
	total = subTotal + tax + shippingCost(len(lines))
	return lines, subTotal, tax, total, ""
}

func (s *Store) applyGift(a GiftAction) GiftResult {
	if a.Parts == GiftDebit|GiftDeliver {
		// Both parts on one group: price the cart as this record finds it.
		var errs string
		if a.Lines, a.SubTotal, a.Tax, a.Total, errs = s.GiftQuote(a.Cart, a.Buyer, a.Tag); errs != "" {
			return GiftResult{Err: errs}
		}
		if !s.customers.has(a.Recipient) {
			return GiftResult{Err: "unknown recipient"}
		}
	}
	if a.Parts&GiftDebit != 0 {
		if err := s.giftDebit(a); err != "" {
			return GiftResult{Err: err}
		}
	}
	res := GiftResult{Total: a.Total}
	if a.Parts&GiftDeliver != 0 {
		if res.Order, res.Err = s.giftDeliver(a); res.Err != "" {
			return GiftResult{Err: res.Err}
		}
	}
	return res
}

func (s *Store) giftDebit(a GiftAction) string {
	cart, ok := s.carts.get(a.Cart)
	if !ok {
		return "unknown cart"
	}
	if !s.customers.has(a.Buyer) {
		return "unknown buyer"
	}

	// The purchased cart is consumed.
	s.carts.delete(a.Cart)
	s.nominalBytes -= nominalCart + int64(len(cart.Lines))*nominalCartLine

	paid, _ := s.customers.edit(a.Buyer, s.cloneCustomer)
	paid.Balance += a.Total
	paid.YTDPmt += a.Total
	return ""
}

func (s *Store) giftDeliver(a GiftAction) (OrderID, string) {
	recipient, ok := s.customers.get(a.Recipient)
	if !ok {
		return 0, "unknown recipient"
	}
	// TPC-W stock rule on the delivered lines.
	for _, l := range a.Lines {
		h, ok := s.items.edit(l.Item, s.cloneItem)
		if !ok {
			continue
		}
		h.Stock -= l.Qty
		if h.Stock < 10 {
			h.Stock += 21
		}
	}
	oid := s.addOrder(orderRow{
		Customer: a.Recipient,
		Date:     stampOf(a.Now),
		SubTotal: a.SubTotal,
		Tax:      a.Tax,
		Total:    a.Total,
		ShipType: a.ShipType,
		ShipDate: stampOf(a.ShipDate),
		Status:   "GIFT",
		BillAddr: recipient.Addr,
		ShipAddr: recipient.Addr,
		Lines:    a.Lines,
	})
	s.nominalBytes += nominalOrder + int64(len(a.Lines))*nominalLine
	return oid, ""
}

func (s *Store) applyInventorySweep(a InventorySweepAction) InventorySweepResult {
	updated := 0
	for _, id := range a.Items {
		h, ok := s.items.edit(id, s.cloneItem)
		if !ok {
			continue
		}
		h.Cost = a.Cost
		h.SweptTag = a.Tag
		updated++
	}
	return InventorySweepResult{Updated: updated}
}

// OrdersTagged counts orders whose lines carry the audit tag — the
// consistency audit's exactly-once check: a committed gift order leaves
// exactly one tagged order on the recipient's group, an aborted or lost
// one leaves zero, a duplicated one more. Read-only; audit use, not a
// hot path.
func (s *Store) OrdersTagged(tag string) int {
	n := 0
	for _, o := range s.orders.all() {
		for _, l := range o.Lines {
			if l.Comments == tag {
				n++
				break
			}
		}
	}
	return n
}
