// Package tpcw implements the TPC-W on-line bookstore (paper §3) as a
// deterministic in-memory object model: the nine entity classes of the
// TPC-W conceptual schema, a facade offering every database operation the
// fourteen web interactions need, a standard population generator, and the
// catalog indexes (search, new products, best sellers) the read
// interactions use.
//
// The package follows RobustStore's retrofit rules (paper §4): the store
// is a black-box deterministic state machine. All writes are expressed as
// action structs in which every source of non-determinism — timestamps,
// random discounts, random item picks — has already been resolved by the
// caller and travels inside the action, so every replica computes the
// identical state.
//
// State sizing: alongside the real in-memory representation, the store
// tracks a calibrated nominal byte size per entity so checkpoints have the
// paper's state-size behaviour (300/500/700 MB for 30/50/70 emulated
// browsers) without allocating that much memory; population counts can be
// further reduced by a factor (PopConfig.Reduction) while nominal accounting
// stays at full scale. That is this reproduction's substitution for the
// paper's testbed: checkpoint and recovery I/O are modeled from the nominal
// size, so the in-memory rows only have to be numerous enough to exercise
// the interactions.
package tpcw

import (
	"time"

	"robuststore/internal/slab"
)

// Entity identifiers. Dense positive integers assigned by the store.
type (
	CountryID  int32
	AddressID  int32
	AuthorID   int32
	CustomerID int32
	ItemID     int32
	OrderID    int32
	CartID     int32
)

// Country is a TPC-W COUNTRY row.
type Country struct {
	ID       CountryID
	Name     string
	Currency string
	Exchange float64
}

// Address is a TPC-W ADDRESS row.
type Address struct {
	ID      AddressID
	Country CountryID
	Street1 string
	Street2 string
	City    string
	State   string
	Zip     string
}

// Author is a TPC-W AUTHOR row.
type Author struct {
	ID    AuthorID
	FName string
	MName string
	LName string
	DOB   time.Time
	Bio   string
}

// Customer is a TPC-W CUSTOMER row.
type Customer struct {
	ID         CustomerID
	UName      string
	Passwd     string
	FName      string
	LName      string
	Addr       AddressID
	Phone      string
	Email      string
	Since      time.Time
	LastLogin  time.Time
	Login      time.Time
	Expiration time.Time
	Discount   float64
	Balance    float64
	YTDPmt     float64
	BirthDate  time.Time
	Data       string
}

// Item is a TPC-W ITEM row (a book).
type Item struct {
	ID        ItemID
	Title     string
	Author    AuthorID
	PubDate   time.Time
	Publisher string
	Subject   string
	Desc      string
	Thumbnail string
	Image     string
	SRP       float64 // suggested retail price
	Cost      float64
	Avail     time.Time
	Stock     int32
	ISBN      string
	PageCount int32
	Backing   string
	Related   [5]ItemID

	// SweptTag is the audit tag of the last inventory sweep that
	// repriced this item. Ordinary repricing (admin update) preserves it,
	// so the cross-shard atomicity audit can recognize a sweep's
	// application even after the regular workload touched the item's cost
	// again.
	SweptTag string
}

// The store keeps rows, and readers get views. A stored row keeps each
// instant as a stamp (8 B where a time.Time takes 24) and pairs its int32
// columns, so none pads alone; the exported Item, Customer, Order and Cart
// are the read API, assembled from the row with their instants in UTC.
//
// An Item or a Customer is held as two parts (see Store): a body with the
// columns no action writes, allocated when the row is populated or created
// and never written again, and a head with the columns actions do write and a
// pointer to the body. The first write after a capture copies the head alone
// (88 B for an item, 48 B for a customer), later writes edit that copy, and
// every head of a row shares its body: every replica applies every write, so
// each byte a write copies is paid once per replica. Columns that are a
// function of the ID (a customer's user name and password, an order's
// credit-card authorization ID) are not stored at all.

// stamp is an instant as a stored row keeps it, in 8 B where a time.Time
// takes 24: nanoseconds since the Unix epoch plus 2^63, so stamps order as
// their instants do and the zero stamp is the zero time.Time. It spans the
// years 1678 to 2262 (the web tier's customers are born as early as 1893),
// and the zero time.Time, which a buy-confirm without a card expiry or a gift
// order without a card carries, lies outside that span: the simulator's
// epoch, Unix time 0, is an instant like any other.
type stamp uint64

const stampEpoch = 1 << 63 // the stamp of Unix time 0

func stampOf(t time.Time) stamp {
	if t.IsZero() {
		return 0
	}
	return stamp(t.UnixNano()) + stampEpoch
}

// time returns the instant s keeps, in UTC.
func (s stamp) time() time.Time {
	if s == 0 {
		return time.Time{}
	}
	return time.Unix(0, int64(s-stampEpoch)).UTC()
}

// itemBody is the immutable part of an ITEM row.
type itemBody struct {
	ID        ItemID
	Author    AuthorID
	Title     string
	Publisher string
	Subject   string
	Desc      string
	ISBN      string
	Backing   string
	PubDate   stamp
	Avail     stamp
	SRP       float64
	PageCount int32
}

// itemHead is the part of an ITEM row that admin updates, sweeps and the
// stock rule write.
type itemHead struct {
	*itemBody
	Cost      float64
	Stock     int32
	Related   [5]ItemID
	Image     string
	Thumbnail string
	SweptTag  string
}

// customerBody is the immutable part of a CUSTOMER row. The user name and
// password are functions of the ID (UserName, customerPasswd).
type customerBody struct {
	ID        CustomerID
	Addr      AddressID
	FName     string
	LName     string
	Phone     string
	Email     string
	Data      string
	Since     stamp
	BirthDate stamp
	Discount  float64
}

// customerHead is the part of a CUSTOMER row that session refreshes and
// purchases write.
type customerHead struct {
	*customerBody
	LastLogin  stamp
	Login      stamp
	Expiration stamp
	Balance    float64
	YTDPmt     float64
}

// itemRow and customerRow are a row as it is first stored: body and first
// head in one record, the head pointing at the body beside it. A later head
// is a record of its own (cloneItem, cloneCustomer).
type (
	itemRow struct {
		head itemHead
		body itemBody
	}
	customerRow struct {
		head customerHead
		body customerBody
	}
)

// link points the row's first head at its body and returns the head.
func (r *itemRow) link() *itemHead {
	r.head.itemBody = &r.body
	return &r.head
}

func (r *customerRow) link() *customerHead {
	r.head.customerBody = &r.body
	return &r.head
}

// cloneItem copies a head into a record of the store's own (see rows), for
// table.edit to store in place of an original that captures and other stores
// may share.
func (s *Store) cloneItem(h *itemHead) *itemHead {
	cp := s.rows.itemHeads.Next()
	*cp = *h
	return cp
}

func (s *Store) cloneCustomer(h *customerHead) *customerHead {
	cp := s.rows.customerHeads.Next()
	*cp = *h
	return cp
}

// item assembles the row's public view.
func (h *itemHead) item() Item {
	b := h.itemBody
	return Item{
		ID: b.ID, Title: b.Title, Author: b.Author, PubDate: b.PubDate.time(),
		Publisher: b.Publisher, Subject: b.Subject, Desc: b.Desc,
		Thumbnail: h.Thumbnail, Image: h.Image, SRP: b.SRP, Cost: h.Cost,
		Avail: b.Avail.time(), Stock: h.Stock, ISBN: b.ISBN, PageCount: b.PageCount,
		Backing: b.Backing, Related: h.Related, SweptTag: h.SweptTag,
	}
}

// customer assembles the row's public view, deriving the columns the row
// does not store.
func (h *customerHead) customer() Customer {
	b := h.customerBody
	return Customer{
		ID: b.ID, UName: UserName(b.ID), Passwd: customerPasswd(b.ID), FName: b.FName,
		LName: b.LName, Addr: b.Addr, Phone: b.Phone, Email: b.Email,
		Since: b.Since.time(), LastLogin: h.LastLogin.time(), Login: h.Login.time(),
		Expiration: h.Expiration.time(), Discount: b.Discount, Balance: h.Balance,
		YTDPmt: h.YTDPmt, BirthDate: b.BirthDate.time(), Data: b.Data,
	}
}

// OrderLine is a TPC-W ORDER_LINE row.
type OrderLine struct {
	Item     ItemID
	Qty      int32
	Discount float64
	Comments string
}

// CCTransaction is the view of a TPC-W CC_XACTS row, embedded in its order.
// Its authorization ID is "AUTH" and the order ID, a function of the ID, so
// the row does not store it.
type CCTransaction struct {
	Type    string
	Num     string
	Name    string
	Expire  time.Time
	Total   float64
	ShipAt  time.Time
	Country CountryID
}

// Order is the view of a TPC-W ORDERS row with its lines and credit-card
// transaction.
type Order struct {
	ID       OrderID
	Customer CustomerID
	Date     time.Time
	SubTotal float64
	Tax      float64
	Total    float64
	ShipType string
	ShipDate time.Time
	Status   string
	BillAddr AddressID
	ShipAddr AddressID
	Lines    []OrderLine
	CC       CCTransaction
}

// ccRow is a CC_XACTS row as its order stores it.
type ccRow struct {
	Type    string
	Num     string
	Name    string
	Expire  stamp
	Total   float64
	ShipAt  stamp
	Country CountryID
}

// orderRow is an ORDERS row as the store keeps it. Nothing writes it once it
// is stored.
type orderRow struct {
	ID       OrderID
	Customer CustomerID
	Date     stamp
	SubTotal float64
	Tax      float64
	Total    float64
	ShipType string
	ShipDate stamp
	Status   string
	BillAddr AddressID
	ShipAddr AddressID
	Lines    []OrderLine
	CC       ccRow
}

// order assembles the row's public view. The view shares the row's lines.
func (o *orderRow) order() Order {
	return Order{
		ID: o.ID, Customer: o.Customer, Date: o.Date.time(), SubTotal: o.SubTotal,
		Tax: o.Tax, Total: o.Total, ShipType: o.ShipType, ShipDate: o.ShipDate.time(),
		Status: o.Status, BillAddr: o.BillAddr, ShipAddr: o.ShipAddr, Lines: o.Lines,
		CC: CCTransaction{
			Type: o.CC.Type, Num: o.CC.Num, Name: o.CC.Name, Expire: o.CC.Expire.time(),
			Total: o.CC.Total, ShipAt: o.CC.ShipAt.time(), Country: o.CC.Country,
		},
	}
}

// CartLine is one item in a shopping cart.
type CartLine struct {
	Item ItemID
	Qty  int32
}

// Cart is the view of a TPC-W SHOPPING_CART row with its lines.
type Cart struct {
	ID    CartID
	Time  time.Time
	Lines []CartLine
}

// cartRow is a SHOPPING_CART row as the store keeps it. An update stores a
// new row with a new lines slice (cartAdd, cartSet).
type cartRow struct {
	ID    CartID
	Time  stamp
	Lines []CartLine
}

// cart assembles the row's public view, which shares the row's lines.
func (c cartRow) cart() Cart { return Cart{ID: c.ID, Time: c.Time.time(), Lines: c.Lines} }

// Nominal per-entity sizes in bytes, calibrated so the standard population
// for 30/50/70 emulated browsers models the paper's 300/500/700 MB states
// (§5.1) and the ordering profile grows the state at the paper's observed
// rate (≈ +250 MB over one measurement interval at 30 EBs).
const (
	nominalCustomer = 1000
	nominalAddress  = 350
	nominalAuthor   = 900
	nominalItem     = 2200
	nominalOrder    = 900
	nominalLine     = 200
	nominalCC       = 300
	nominalCart     = 300
	nominalCartLine = 48
)

// catalog is the immutable part of the store: entities and indexes that no
// web interaction mutates. It is shared (by reference) between snapshots
// and clones.
type catalog struct {
	countries []Country
	authors   map[AuthorID]Author

	bySubject    map[string][]ItemID // all items per subject
	newBySubject map[string][]ItemID // 50 newest per subject (new products page)
	titleIndex   map[string][]ItemID // lowercase title token -> items
	authorIndex  map[string][]ItemID // lowercase author last-name token -> items
	subjects     []string
	itemCount    int32
}

// Store is the bookstore state machine: the critical state RobustStore
// replicates through Treplica (paper §4, task I). All mutation goes
// through Apply with action structs; reads are plain methods.
type Store struct {
	cat *catalog

	// The entity tables are paged copy-on-write tables (table.go) over
	// stored rows, not views: instants are stamps, and the readers' Item,
	// Customer, Order and Cart are assembled on the way out. Nothing but the
	// table that stored a row ever writes it. An item or a customer is a
	// body and a head (itemHead, customerHead): the body is written once,
	// when the row is populated or created. The first write to a head after
	// a capture stores a copy of it that points at the same body, and later
	// writes edit that copy in place until the next capture (table.edit). An
	// address or an order is never written again; a cart's write stores a
	// fresh cartRow and a fresh Lines slice. A snapshot, the stores restored
	// from it and the store it was taken from can therefore share rows,
	// bodies and pages: capturing or adopting a table copies its page
	// directory, and a store copies a shared page the first time it writes
	// to it. The rows of a population also share the text they repeat — a
	// street, a city, a last name is one string however many rows hold it
	// (Populate), which needs no rule at all: nothing writes a string.
	//
	// The rows a write keeps — customers, addresses, orders and their lines,
	// and the head copies — are carved from the store's slabs (rows), one
	// allocation per 16 KiB array. An array lives while any row in it does,
	// so a cart's lines, replaced on every update while their neighbours
	// live on, are allocated on their own.
	items     table[ItemID, *itemHead]
	customers table[CustomerID, *customerHead] // the user name is UserName(ID): no separate index
	addresses table[AddressID, *Address]
	orders    table[OrderID, *orderRow]
	carts     table[CartID, cartRow]

	// lastOrder indexes each customer's most recent order (the TPC-W
	// getMostRecentOrder query is a SQL max; this is its index).
	lastOrder table[CustomerID, OrderID]

	// recentOrders is the ring of the last bestSellerWindow order IDs
	// that the TPC-W best-sellers query is defined over.
	recentOrders []OrderID

	nextAddress  AddressID
	nextCustomer CustomerID
	nextOrder    OrderID
	nextCart     CartID

	// bsQty is the rolling quantity-sold aggregate over the
	// recentOrders window, maintained incrementally as orders enter and
	// leave it, so the best-sellers query never rescans the window.
	bsQty table[ItemID, int64]

	// bsBySubject partitions bsQty by item subject, so re-ranking one
	// subject's best sellers touches only that subject's window entries
	// instead of rescanning all of bsQty and probing every item. It is
	// derived, non-replicated state: built lazily on the first
	// best-sellers query, mirrored incrementally by pushRecentOrder, and
	// dropped (nil) wherever bsQty is restored wholesale.
	bsBySubject map[string]map[ItemID]int64

	// ordersSinceBS invalidates the best-sellers cache (TPC-W allows
	// 30 s of staleness; we refresh every bestSellerRefresh orders).
	ordersSinceBS int
	bsCache       map[string][]BestSeller

	nominalBytes int64

	// deltaBase says the tables' dirty slots are exactly the writes since
	// the last checkpoint (core.DeltaSnapshotter; see delta.go): false
	// until a full Snapshot anchors the chain, and after a DropOwned
	// (deltas do not carry wholesale deletion).
	deltaBase bool

	rows rows
}

// rows carves the records a store keeps, one slab per kind (package slab). It
// belongs to its store alone: a payload never carries it, so a clone starts
// with none and a restored store keeps its own, and a row that a capture, a
// delta or a migration payload shares with another store is only read there.
type rows struct {
	customers     slab.Slab[customerRow]
	addresses     slab.Slab[Address]
	orders        slab.Slab[orderRow]
	lines         slab.Slab[OrderLine]
	itemHeads     slab.Slab[itemHead]
	customerHeads slab.Slab[customerHead]
}

// bestSellerWindow is the TPC-W definition: best sellers are computed over
// the 3333 most recent orders.
const bestSellerWindow = 3333

// bestSellerRefresh is how many new orders invalidate the cached ranking.
const bestSellerRefresh = 100

// BestSeller is one row of the best-sellers page.
type BestSeller struct {
	Item ItemID
	Qty  int64
}

// NominalBytes returns the modeled serialized state size in bytes — the
// quantity the paper reports as "state size" and that drives checkpoint
// and recovery I/O.
func (s *Store) NominalBytes() int64 { return s.nominalBytes }

// Counts returns entity counts, for tests and reporting.
func (s *Store) Counts() (items, customers, orders, carts int) {
	return s.items.len(), s.customers.len(), s.orders.len(), s.carts.len()
}

// Subjects returns the TPC-W subject list.
func (s *Store) Subjects() []string { return s.cat.subjects }
