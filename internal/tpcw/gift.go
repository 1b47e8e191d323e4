package tpcw

// This file defines the bookstore's first genuinely multi-shard
// workloads: cross-session gift orders — one customer's
// cart purchased for a customer homed on another shard — and admin
// inventory sweeps that reprice an item set spanning groups. Both exist
// in two forms:
//
//   - a merged single-group action (GiftOrderAction; a sweep whose items
//     all route to one group), submitted directly like any other action
//     when every participant collapses to one group — the fast path that
//     stays bit-identical to the pre-transaction submit path; and
//   - per-group branch actions (GiftDebitAction/GiftDeliverAction; an
//     InventorySweepAction per participant group), carried inside
//     core.TxnPrepare records and applied atomically across groups by
//     the 2PC driver (internal/webtier).
//
// As everywhere in this package, every branch is deterministic: the
// coordinator resolves all pricing (GiftQuote) and clock reads before the
// branches are submitted, so the debit and the delivery agree on totals
// without ever reading each other's group.

import "time"

// GiftOrderAction is the merged single-group gift purchase: consume the
// buyer's cart, charge the buyer, and create the order for the recipient
// — BuyConfirm's atomicity, but with distinct paying and receiving
// customers. Only valid when buyer and recipient are homed on the same
// group; the cross-group form is the GiftDebit/GiftDeliver branch pair.
type GiftOrderAction struct {
	Cart      CartID
	Buyer     CustomerID
	Recipient CustomerID
	ShipType  string
	ShipDate  time.Time
	Tag       string // audit tag, stamped on the order lines
	Now       time.Time
}

// GiftDebitAction is the buyer-group branch of a cross-shard gift order:
// consume the cart and charge the buyer the coordinator-quoted total.
type GiftDebitAction struct {
	Cart  CartID
	Buyer CustomerID
	Total float64
	Tag   string
	Now   time.Time
}

// GiftDeliverAction is the recipient-group branch: create the order (with
// the TPC-W stock rule on its lines) for the recipient. Lines and totals
// were priced by the coordinator against the buyer group's cart, so this
// branch never reads remote state.
type GiftDeliverAction struct {
	Recipient CustomerID
	Lines     []OrderLine
	SubTotal  float64
	Tax       float64
	Total     float64
	ShipType  string
	ShipDate  time.Time
	Tag       string
	Now       time.Time
}

// InventorySweepAction reprices a set of items to one cost — the admin
// inventory sweep. A cross-shard sweep submits one of these per
// participant group, each carrying the items that group owns; the unique
// Cost value doubles as the atomicity audit marker (a half-applied sweep
// leaves some groups repriced and others not).
type InventorySweepAction struct {
	Items []ItemID
	Cost  float64
	Tag   string
	Now   time.Time
}

// GiftOrderResult is GiftOrderAction's result.
type GiftOrderResult struct {
	Order OrderID
	Total float64
	Err   string
}

// GiftDebitResult is GiftDebitAction's result.
type GiftDebitResult struct {
	Err string
}

// GiftDeliverResult is GiftDeliverAction's result.
type GiftDeliverResult struct {
	Order OrderID
	Err   string
}

// InventorySweepResult is InventorySweepAction's result.
type InventorySweepResult struct {
	Updated int
}

// StageTxn implements core.TxnStager: validate a branch action against
// current state without mutating it (the prepare vote). Unknown actions
// vote yes — commit then surfaces any error in the action's own result.
func (s *Store) StageTxn(action any) string {
	switch a := action.(type) {
	case GiftDebitAction:
		cart, ok := s.carts.get(a.Cart)
		if !ok || len(cart.Lines) == 0 {
			return "empty or unknown cart"
		}
		if !s.customers.has(a.Buyer) {
			return "unknown buyer"
		}
		return ""
	case GiftDeliverAction:
		if !s.customers.has(a.Recipient) {
			return "unknown recipient"
		}
		if len(a.Lines) == 0 {
			return "no order lines"
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
// Read-only; the coordinator calls it on the buyer's group before
// building the branches, so both branches carry identical totals.
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

func (s *Store) applyGiftOrder(a GiftOrderAction) GiftOrderResult {
	lines, subTotal, tax, total, errs := s.GiftQuote(a.Cart, a.Buyer, a.Tag)
	if errs != "" {
		return GiftOrderResult{Err: errs}
	}
	if !s.customers.has(a.Recipient) {
		return GiftOrderResult{Err: "unknown recipient"}
	}
	if deb := s.applyGiftDebit(GiftDebitAction{Cart: a.Cart, Buyer: a.Buyer, Total: total, Tag: a.Tag, Now: a.Now}); deb.Err != "" {
		return GiftOrderResult{Err: deb.Err}
	}
	del := s.applyGiftDeliver(GiftDeliverAction{
		Recipient: a.Recipient, Lines: lines,
		SubTotal: subTotal, Tax: tax, Total: total,
		ShipType: a.ShipType, ShipDate: a.ShipDate, Tag: a.Tag, Now: a.Now,
	})
	if del.Err != "" {
		return GiftOrderResult{Err: del.Err}
	}
	return GiftOrderResult{Order: del.Order, Total: total}
}

func (s *Store) applyGiftDebit(a GiftDebitAction) GiftDebitResult {
	cart, ok := s.carts.get(a.Cart)
	if !ok {
		return GiftDebitResult{Err: "unknown cart"}
	}
	if !s.customers.has(a.Buyer) {
		return GiftDebitResult{Err: "unknown buyer"}
	}

	// The purchased cart is consumed.
	s.carts.delete(a.Cart)
	s.nominalBytes -= nominalCart + int64(len(cart.Lines))*nominalCartLine

	paid, _ := s.customers.edit(a.Buyer, s.cloneCustomer)
	paid.Balance += a.Total
	paid.YTDPmt += a.Total
	return GiftDebitResult{}
}

func (s *Store) applyGiftDeliver(a GiftDeliverAction) GiftDeliverResult {
	recipient, ok := s.customers.get(a.Recipient)
	if !ok {
		return GiftDeliverResult{Err: "unknown recipient"}
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
	return GiftDeliverResult{Order: oid}
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
