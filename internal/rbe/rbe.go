// Package rbe implements TPC-W remote browser emulators (paper §3): a
// closed-loop population of emulated browsers that issue the fourteen
// TPC-W web interactions against a frontend, with think times and the
// interaction mixes of the three workload profiles (browsing, shopping,
// ordering).
//
// Following the paper's methodology, the think time is 1 s (their modified
// value; §5.1) and each emulated browser draws interactions from the
// profile's steady-state distribution, which preserves the read/write
// ratios that drive every result (95/5, 80/20 and 50/50).
package rbe

import (
	"reflect"
	"time"

	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

// Interaction enumerates the fourteen TPC-W web interactions.
type Interaction int

// The TPC-W web interactions.
const (
	Home Interaction = iota + 1
	NewProducts
	BestSellers
	ProductDetail
	SearchRequest
	SearchResults
	ShoppingCart
	CustomerRegistration
	BuyRequest
	BuyConfirm
	OrderInquiry
	OrderDisplay
	AdminRequest
	AdminConfirm

	// Cross-shard interactions (appended past the TPC-W fourteen so the
	// profile mixes stay untouched): a gift purchase delivered to a
	// customer on another session's shard, and an admin inventory sweep
	// repricing items across groups. Issued by the experiment harness's
	// transaction driver, never drawn from a profile mix.
	GiftPurchase
	StockSweep
)

// interactionNames for reporting.
var interactionNames = map[Interaction]string{
	Home: "home", NewProducts: "new_products", BestSellers: "best_sellers",
	ProductDetail: "product_detail", SearchRequest: "search_request",
	SearchResults: "search_results", ShoppingCart: "shopping_cart",
	CustomerRegistration: "customer_registration", BuyRequest: "buy_request",
	BuyConfirm: "buy_confirm", OrderInquiry: "order_inquiry",
	OrderDisplay: "order_display", AdminRequest: "admin_request",
	AdminConfirm: "admin_confirm", GiftPurchase: "gift_purchase",
	StockSweep: "stock_sweep",
}

// String implements fmt.Stringer.
func (i Interaction) String() string { return interactionNames[i] }

// IsWrite reports whether the interaction updates the bookstore state —
// TPC-W's classification, which yields ≈4.35 % writes for browsing,
// ≈18.5 % for shopping and ≈49.4 % for ordering.
func (i Interaction) IsWrite() bool {
	switch i {
	case ShoppingCart, CustomerRegistration, BuyRequest, BuyConfirm, AdminConfirm,
		GiftPurchase, StockSweep:
		return true
	default:
		return false
	}
}

// Profile selects a TPC-W workload mix.
type Profile int

// The three TPC-W workload profiles (paper §3).
const (
	Browsing Profile = iota + 1 // WIPSb: 95 % reads
	Shopping                    // WIPS: 80 % reads (the reference profile)
	Ordering                    // WIPSo: 50 % reads
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case Browsing:
		return "browsing"
	case Shopping:
		return "shopping"
	case Ordering:
		return "ordering"
	default:
		return "unknown"
	}
}

// Profiles lists all three, in the paper's order.
var Profiles = []Profile{Browsing, Shopping, Ordering}

// mixRow is an interaction's weight in a profile (percent ×100 to stay
// integral).
type mixRow struct {
	kind   Interaction
	weight int
}

// The steady-state interaction distributions of the TPC-W CBMG for each
// profile (percent × 100).
var mixes = map[Profile][]mixRow{
	Browsing: {
		{Home, 2900}, {NewProducts, 1100}, {BestSellers, 1100},
		{ProductDetail, 2100}, {SearchRequest, 1200}, {SearchResults, 1100},
		{ShoppingCart, 200}, {CustomerRegistration, 82}, {BuyRequest, 75},
		{BuyConfirm, 69}, {OrderInquiry, 30}, {OrderDisplay, 25},
		{AdminRequest, 10}, {AdminConfirm, 9},
	},
	Shopping: {
		{Home, 1600}, {NewProducts, 500}, {BestSellers, 500},
		{ProductDetail, 1700}, {SearchRequest, 2000}, {SearchResults, 1700},
		{ShoppingCart, 1160}, {CustomerRegistration, 300}, {BuyRequest, 260},
		{BuyConfirm, 120}, {OrderInquiry, 75}, {OrderDisplay, 66},
		{AdminRequest, 10}, {AdminConfirm, 9},
	},
	Ordering: {
		{Home, 912}, {NewProducts, 46}, {BestSellers, 46},
		{ProductDetail, 1235}, {SearchRequest, 1453}, {SearchResults, 1308},
		{ShoppingCart, 1353}, {CustomerRegistration, 1286}, {BuyRequest, 1273},
		{BuyConfirm, 1018}, {OrderInquiry, 25}, {OrderDisplay, 22},
		{AdminRequest, 12}, {AdminConfirm, 11},
	},
}

// WriteFraction returns the profile's write ratio according to its mix.
func (p Profile) WriteFraction() float64 {
	var writes, total int
	for _, row := range mixes[p] {
		total += row.weight
		if row.kind.IsWrite() {
			writes += row.weight
		}
	}
	return float64(writes) / float64(total)
}

// pick draws an interaction from the profile mix.
func (p Profile) pick(rng *xrand.Rand) Interaction {
	rows := mixes[p]
	total := 0
	for _, r := range rows {
		total += r.weight
	}
	n := rng.Intn(total)
	for _, r := range rows {
		n -= r.weight
		if n < 0 {
			return r.kind
		}
	}
	return Home
}

// Request is one web interaction with all parameters resolved by the
// emulated browser.
type Request struct {
	Client     int64 // unique client id; the proxy hashes on it
	Kind       Interaction
	Item       tpcw.ItemID
	Subject    string
	SearchKind tpcw.SearchKind
	SearchTerm string
	Customer   tpcw.CustomerID
	UName      string
	Cart       tpcw.CartID
	Qty        int32

	// Peer is the counterparty of a cross-shard interaction: the gift
	// recipient of a GiftPurchase. The proxy routes the request by Client
	// as usual (the buyer's group coordinates) and the recipient's group
	// joins as a 2PC participant.
	Peer tpcw.CustomerID

	// Items is the item set of a StockSweep; Cost is its new unique cost
	// (the sweep's atomicity audit marker). Tag labels the transaction
	// for the consistency audit.
	Items []tpcw.ItemID
	Cost  float64
	Tag   string
}

// Response is the frontend's answer.
type Response struct {
	Err      bool
	Cart     tpcw.CartID
	Customer tpcw.CustomerID
	UName    string
	Order    tpcw.OrderID
}

// Frontend accepts interactions; done is invoked exactly once.
type Frontend interface {
	Do(req Request, done func(Response))
}

// Scheduler is the timing dependency (the simulator or a live timer
// source).
type Scheduler interface {
	Now() time.Time
	After(d time.Duration, fn func())
}

// Recorder receives one sample per completed interaction, tagged with the
// issuing client so a sharded harness can bucket samples per Paxos group.
// *metrics.ShardedRecorder satisfies it.
type Recorder interface {
	RecordClient(client int64, at time.Time, latency time.Duration, isErr bool)
}

// Config parameterizes an RBE population.
type Config struct {
	// Browsers is the number of emulated browsers (closed-loop
	// population).
	Browsers int

	// Profile selects the workload mix.
	Profile Profile

	// ThinkTime is the mean of the exponential think time. The paper
	// uses 1 s (§5.1).
	ThinkTime time.Duration

	// Population is the RBEs' static knowledge of the store.
	Population tpcw.PopulationInfo

	// Seed drives the deterministic behaviour of all browsers.
	Seed uint64

	// Recorder receives one sample per completed interaction; may be
	// nil.
	Recorder Recorder

	// Stop: interactions completing after this instant are not issued
	// anymore (ramp-down ends the run).
	Stop time.Time
}

// Population drives Config.Browsers emulated browsers.
type Population struct {
	cfg   Config
	sched Scheduler
	front Frontend
	rng   *xrand.Rand

	issued    int64
	completed int64
	errors    int64
}

// New builds an RBE population. Call Start to begin issuing load.
func New(cfg Config, sched Scheduler, front Frontend) *Population {
	if cfg.ThinkTime == 0 {
		cfg.ThinkTime = time.Second
	}
	// A typed-nil pointer stored in the Recorder interface would pass the
	// nil check at record time and panic on first use; normalize it here.
	if cfg.Recorder != nil {
		if v := reflect.ValueOf(cfg.Recorder); v.Kind() == reflect.Pointer && v.IsNil() {
			cfg.Recorder = nil
		}
	}
	return &Population{
		cfg:   cfg,
		sched: sched,
		front: front,
		rng:   xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 99),
	}
}

// Start launches every browser with an initial stagger of up to one think
// time, so the population does not tick in lockstep.
func (p *Population) Start() {
	for i := 0; i < p.cfg.Browsers; i++ {
		b := &browser{
			pop:    p,
			client: int64(i + 1),
			rng:    p.rng.Split(),
		}
		b.stepFn, b.doneFn = b.step, b.done
		delay := time.Duration(b.rng.Float64() * float64(p.cfg.ThinkTime))
		p.sched.After(delay, b.stepFn)
	}
}

// Issued returns the number of interactions sent so far.
func (p *Population) Issued() int64 { return p.issued }

// Completed returns the number of completed interactions.
func (p *Population) Completed() int64 { return p.completed }

// Errors returns the number of errored interactions.
func (p *Population) Errors() int64 { return p.errors }

// browser is one emulated browser: a session with a customer identity and
// an optional shopping cart, issuing interactions in a think-time loop. The
// loop is closed — one interaction in flight per browser — so the request
// and its issue time live in the browser, and the two halves of the loop
// are method values bound once at Start: an interaction allocates nothing
// here.
type browser struct {
	pop    *Population
	client int64
	rng    *xrand.Rand

	customer tpcw.CustomerID
	uname    string
	cart     tpcw.CartID
	hasItems bool

	req    Request   // the interaction in flight
	start  time.Time // when it was issued
	stepFn func()
	doneFn func(Response)
}

// step issues the browser's next interaction.
func (b *browser) step() {
	p := b.pop
	if !p.cfg.Stop.IsZero() && !p.sched.Now().Before(p.cfg.Stop) {
		return
	}
	b.req = b.buildRequest()
	b.start = p.sched.Now()
	p.issued++
	p.front.Do(b.req, b.doneFn)
}

// done takes the answer to the interaction in flight, then thinks.
func (b *browser) done(resp Response) {
	p := b.pop
	p.completed++
	latency := p.sched.Now().Sub(b.start)
	if resp.Err {
		p.errors++
	}
	if p.cfg.Recorder != nil {
		p.cfg.Recorder.RecordClient(b.client, p.sched.Now(), latency, resp.Err)
	}
	b.observe(resp)
	think := time.Duration(b.rng.ExpFloat64() * float64(p.cfg.ThinkTime))
	if think > 7*p.cfg.ThinkTime {
		think = 7 * p.cfg.ThinkTime // TPC-W truncates the tail
	}
	p.sched.After(think, b.stepFn)
}

// buildRequest resolves an interaction's parameters from the session and
// population knowledge.
func (b *browser) buildRequest() Request {
	p := b.pop
	info := p.cfg.Population
	kind := p.cfg.Profile.pick(b.rng)
	req := Request{Client: b.client, Kind: kind}
	switch kind {
	case Home, ProductDetail, AdminRequest, AdminConfirm:
		req.Item = tpcw.ItemID(b.rng.Intn(info.Items) + 1)
	case NewProducts, BestSellers:
		req.Subject = info.Subjects[b.rng.Intn(len(info.Subjects))]
	case SearchRequest, SearchResults:
		switch b.rng.Intn(3) {
		case 0:
			req.SearchKind = tpcw.SearchByAuthor
			req.SearchTerm = info.AuthorTokens[b.rng.Intn(len(info.AuthorTokens))]
		case 1:
			req.SearchKind = tpcw.SearchByTitle
			req.SearchTerm = info.TitleTokens[b.rng.Intn(len(info.TitleTokens))]
		default:
			req.SearchKind = tpcw.SearchBySubject
			req.SearchTerm = info.Subjects[b.rng.Intn(len(info.Subjects))]
		}
	case ShoppingCart:
		req.Cart = b.cart
		req.Item = tpcw.ItemID(b.rng.Intn(info.Items) + 1)
		req.Qty = int32(b.rng.Intn(3) + 1)
	case CustomerRegistration:
		// Parameters are drawn here; the server only adds them.
	case BuyRequest:
		req.Cart = b.cart
		req.Customer = b.sessionCustomer()
		req.Item = tpcw.ItemID(b.rng.Intn(info.Items) + 1)
	case BuyConfirm:
		req.Cart = b.cart
		req.Customer = b.sessionCustomer()
		req.Item = tpcw.ItemID(b.rng.Intn(info.Items) + 1)
	case OrderInquiry, OrderDisplay:
		req.Customer = b.sessionCustomer()
		req.UName = b.uname
	}
	return req
}

// sessionCustomer returns this browser's customer, defaulting to a random
// member of the initial population.
func (b *browser) sessionCustomer() tpcw.CustomerID {
	if b.customer != 0 {
		return b.customer
	}
	id := tpcw.CustomerID(b.rng.Intn(b.pop.cfg.Population.Customers) + 1)
	b.customer = id
	b.uname = ""
	return id
}

// observe updates session state from the response to the interaction in
// flight.
func (b *browser) observe(resp Response) {
	if resp.Err {
		// A failed cart interaction may mean the cart no longer exists
		// (e.g. a purchase whose reply was lost in a crash actually
		// committed); drop the session cart so the next interaction
		// starts fresh, as a human shopper would.
		if b.req.Cart != 0 {
			b.cart = 0
			b.hasItems = false
		}
		return
	}
	if resp.Cart != 0 {
		b.cart = resp.Cart
		b.hasItems = true
	}
	if resp.Customer != 0 {
		b.customer = resp.Customer
		b.uname = resp.UName
	}
	if b.req.Kind == BuyConfirm && resp.Order != 0 {
		// Cart consumed by the purchase.
		b.cart = 0
		b.hasItems = false
	}
}
