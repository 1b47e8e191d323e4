package tpcw

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"robuststore/internal/xrand"
)

// PopConfig parameterizes the standard TPC-W population (paper §5.1: 10,000
// items with 30, 50 and 70 emulated browsers to produce 300, 500 and
// 700 MB initial states).
type PopConfig struct {
	// Items is NUM_ITEMS. Default 10000.
	Items int

	// EBs is the emulated-browser population parameter:
	// NUM_CUSTOMERS = 2880 × EBs, addresses 2×, orders 0.9×. Default 30.
	EBs int

	// Reduction divides the real in-memory entity counts while the
	// nominal state-size accounting stays at full TPC-W scale (the
	// substitution the package comment describes). Default 1 (full
	// fidelity); the experiment harness uses 4.
	Reduction int

	// Seed drives the deterministic generators.
	Seed uint64
}

func (c PopConfig) withDefaults() PopConfig {
	if c.Items == 0 {
		c.Items = 10000
	}
	if c.EBs == 0 {
		c.EBs = 30
	}
	if c.Reduction == 0 {
		c.Reduction = 1
	}
	return c
}

// FullCounts returns the unreduced TPC-W cardinalities for this
// configuration.
func (c PopConfig) FullCounts() (items, customers, addresses, orders, authors int) {
	c = c.withDefaults()
	items = c.Items
	customers = 2880 * c.EBs
	addresses = 2 * customers
	orders = customers * 9 / 10
	authors = c.Items / 4
	return items, customers, addresses, orders, authors
}

// PopulationInfo is the static knowledge a remote browser emulator has
// about the store: initial cardinalities and searchable vocabulary. RBEs
// generate requests from this alone, never by inspecting server state.
type PopulationInfo struct {
	Items        int
	Customers    int
	Subjects     []string
	TitleTokens  []string
	AuthorTokens []string
}

// subjects is the TPC-W subject list.
var subjects = []string{
	"ARTS", "BIOGRAPHIES", "BUSINESS", "CHILDREN", "COMPUTERS", "COOKING",
	"HEALTH", "HISTORY", "HOME", "HUMOR", "LITERATURE", "MYSTERY",
	"NON-FICTION", "PARENTING", "POLITICS", "REFERENCE", "RELIGION",
	"ROMANCE", "SELF-HELP", "SCIENCE-NATURE", "SCIENCE-FICTION", "SPORTS",
	"YOUTH", "TRAVEL",
}

func canonicalSubject(s string) string { return strings.ToUpper(strings.TrimSpace(s)) }

// titleWords is the vocabulary for book titles (and therefore title
// search terms).
var titleWords = []string{
	"silent", "golden", "hidden", "broken", "ancient", "electric", "frozen",
	"burning", "crimson", "emerald", "velvet", "iron", "paper", "glass",
	"wooden", "copper", "silver", "shadow", "river", "mountain", "ocean",
	"desert", "forest", "island", "harbor", "garden", "castle", "bridge",
	"lantern", "compass", "mirror", "letter", "journey", "winter", "summer",
	"autumn", "spring", "thunder", "whisper", "horizon", "memory", "promise",
	"secret", "legacy", "fortune", "destiny", "harvest", "voyage", "refuge",
	"beacon",
}

// authorSyllables builds author last names.
var authorSyllables = []string{
	"al", "ber", "car", "dan", "el", "far", "gor", "han", "il", "jor",
	"kal", "lor", "mar", "nor", "ol", "per", "quin", "ros", "sal", "tor",
}

var countryNames = []string{
	"United States", "United Kingdom", "Canada", "Germany", "France",
	"Japan", "Netherlands", "Switzerland", "Australia", "Brazil",
}

// Populate builds a store with the standard TPC-W population. It loads in
// bulk: text a row repeats is looked up by the number drawn for it, text of
// a row's own is spelled into shared chunks (loader), dates are arithmetic on
// the base date, and only the orders the best-sellers window ends up holding
// enter it. A population is a function of its seed: the draws keep their
// order, and every row, index and window holds what an order-by-order build
// would.
func Populate(cfg PopConfig) *Store {
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed*0x9e3779b97f4a7c15 + 7)

	fullItems, fullCustomers, fullAddresses, fullOrders, fullAuthors := cfg.FullCounts()
	items := fullItems / cfg.Reduction
	customers := fullCustomers / cfg.Reduction
	orders := fullOrders / cfg.Reduction
	authors := fullAuthors / cfg.Reduction
	if items < 100 {
		items = minInt(100, fullItems)
	}
	if authors < 10 {
		authors = minInt(10, fullAuthors)
	}
	if customers < 10 {
		customers = minInt(10, fullCustomers)
	}

	// Every date is a whole number of days or years from base, a UTC
	// midnight: a day is 24 hours, and the years are read from a table.
	base := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
	day := func(k int) time.Time { return base.Add(time.Duration(k) * 24 * time.Hour) }
	var yearsBefore [80]time.Time // Authors are 30–79 years old, customers 18–77.
	for y := range yearsBefore {
		yearsBefore[y] = base.AddDate(-y, 0, 0)
	}
	avail, expire := stampOf(base), stampOf(base.AddDate(2, 0, 0))

	cat := &catalog{
		authors:      make(map[AuthorID]Author, authors),
		bySubject:    make(map[string][]ItemID),
		newBySubject: make(map[string][]ItemID),
		titleIndex:   make(map[string][]ItemID),
		authorIndex:  make(map[string][]ItemID),
		subjects:     subjects,
		itemCount:    int32(items),
	}
	s := &Store{cat: cat}
	l := newLoader()

	// Countries (TPC-W: 92 rows).
	for i := 1; i <= 92; i++ {
		var name string
		if i <= len(countryNames) {
			name = countryNames[i-1]
		} else {
			name = l.number("Country ", i, "")
		}
		cat.countries = append(cat.countries, Country{
			ID: CountryID(i), Name: name, Currency: "USD",
			Exchange: 1 + rng.Float64(),
		})
	}

	// Authors.
	for i := 1; i <= authors; i++ {
		cat.authors[AuthorID(i)] = Author{
			ID:    AuthorID(i),
			FName: l.number("A", i, ""),
			LName: l.name(rng),
			DOB:   yearsBefore[30+rng.Intn(50)],
			Bio:   "bio",
		}
	}

	// Items.
	type pubEntry struct {
		id  ItemID
		pub stamp
	}
	pubBySubject := make(map[string][]pubEntry)
	itemRows := make([]itemRow, items)
	for i := 1; i <= items; i++ {
		id := ItemID(i)
		w1 := titleWords[rng.Intn(len(titleWords))]
		w2 := titleWords[rng.Intn(len(titleWords))]
		subject := subjects[rng.Intn(len(subjects))]
		author := AuthorID(rng.Intn(authors) + 1)
		srp := 10 + rng.Float64()*90
		// The draws below keep this order: publication date, publisher,
		// cost, stock, pages.
		pub := stampOf(day(-rng.Intn(3650)))
		publisher := l.shared(l.publishers, rng.Intn(100), "PUB", "")
		row := &itemRows[i-1]
		*row = itemRow{
			head: itemHead{
				Cost:      srp * (0.5 + rng.Float64()*0.5),
				Stock:     int32(10 + rng.Intn(21)),
				Image:     l.number("img/full/", i, ""),
				Thumbnail: l.number("img/thumb/", i, ""),
			},
			body: itemBody{
				ID:        id,
				Title:     l.title(w1, w2, i),
				Author:    author,
				PubDate:   pub,
				Publisher: publisher,
				Subject:   subject,
				Desc:      "desc",
				SRP:       srp,
				Avail:     avail,
				ISBN:      l.number("ISBN", i, ""),
				PageCount: int32(100 + rng.Intn(900)),
				Backing:   "PAPERBACK",
			},
		}
		for r := 0; r < 5; r++ {
			row.head.Related[r] = ItemID((i+r*131)%items + 1)
		}
		s.items.set(id, row.link())
		cat.bySubject[subject] = append(cat.bySubject[subject], id)
		cat.titleIndex[w1] = append(cat.titleIndex[w1], id)
		if w2 != w1 {
			cat.titleIndex[w2] = append(cat.titleIndex[w2], id)
		}
		lname := strings.ToLower(cat.authors[author].LName)
		cat.authorIndex[lname] = append(cat.authorIndex[lname], id)
		pubBySubject[subject] = append(pubBySubject[subject], pubEntry{id: id, pub: pub})
	}
	for subject, entries := range pubBySubject {
		// Newest-first prefix of 50 (the new-products page).
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].pub != entries[j].pub {
				return entries[i].pub > entries[j].pub
			}
			return entries[i].id < entries[j].id
		})
		n := len(entries)
		if n > searchLimit {
			n = searchLimit
		}
		ids := make([]ItemID, 0, n)
		for _, e := range entries[:n] {
			ids = append(ids, e.id)
		}
		cat.newBySubject[subject] = ids
	}

	// Customers and their addresses, and what an order copies from its
	// buyer, at hand without a look into the customer table.
	type buyer struct {
		addr  AddressID
		fname string
	}
	buyers := make([]buyer, customers+1)
	for i := 1; i <= customers; i++ {
		addr := s.addAddress(
			l.shared(l.streets[0], rng.Intn(999), "", " Main St"), "",
			l.shared(l.cities, rng.Intn(500), "City", ""), "ST",
			l.number("", 10000+rng.Intn(89999), ""),
			CountryID(rng.Intn(92)+1),
		)
		// Second address per customer (TPC-W: 2x addresses).
		s.addAddress(
			l.shared(l.streets[1], rng.Intn(999), "", " Second St"), "",
			l.shared(l.cities, rng.Intn(500), "City", ""), "ST",
			l.number("", 10000+rng.Intn(89999), ""),
			CountryID(rng.Intn(92)+1),
		)
		buyers[i] = buyer{addr: addr, fname: l.number("F", i, "")}
		s.addCustomer(customerBody{
			ID:        CustomerID(i),
			FName:     buyers[i].fname,
			LName:     l.name(rng),
			Addr:      addr,
			Phone:     l.number("", 1000000000+rng.Intn(899999999), ""),
			Email:     l.number("C", i, "@example.com"), // UserName(id) + "@example.com"
			Since:     stampOf(day(-rng.Intn(730))),
			Discount:  float64(rng.Intn(51)),
			BirthDate: stampOf(yearsBefore[18+rng.Intn(60)]),
			Data:      "data",
		}, base)
	}
	s.nextCustomer = CustomerID(customers)

	// Historical orders (90 % of customers), newest last. Each is stored
	// and is its customer's latest so far; only the last bestSellerWindow
	// enter the best-sellers window, which holds just those once the
	// population is built.
	window := orders - bestSellerWindow
	s.recentOrders = make([]OrderID, 0, minInt(orders, bestSellerWindow))
	for i := 1; i <= orders; i++ {
		cust := CustomerID(rng.Intn(customers) + 1)
		nLines := 1 + rng.Intn(4)
		lines := s.orderLines(nLines)
		var subTotal float64
		for k := 0; k < nLines; k++ {
			iid := ItemID(rng.Intn(items) + 1)
			qty := int32(1 + rng.Intn(3))
			subTotal += itemRows[iid-1].head.Cost * float64(qty)
			lines = append(lines, OrderLine{Item: iid, Qty: qty})
		}
		tax := subTotal * taxRate
		date := day(-rng.Intn(365))
		b := buyers[cust]
		o := s.storeOrder(orderRow{
			Customer: cust,
			Date:     stampOf(date),
			SubTotal: subTotal,
			Tax:      tax,
			Total:    subTotal + tax + shippingCost(nLines),
			ShipType: "MAIL",
			ShipDate: stampOf(date.Add(time.Duration(1+rng.Intn(7)) * 24 * time.Hour)),
			Status:   "SHIPPED",
			BillAddr: b.addr,
			ShipAddr: b.addr,
			Lines:    lines,
			CC: ccRow{
				Type: "VISA", Num: "4111111111111111",
				Name: b.fname, Expire: expire,
				Total: subTotal + tax, ShipAt: stampOf(date), Country: 1,
			},
		})
		if i > window {
			s.pushRecentOrder(o)
		}
	}
	s.ordersSinceBS = 0
	s.bsCache = nil
	s.bsBySubject = nil

	// Nominal state size uses the *full* TPC-W cardinalities so the
	// checkpoint/recovery model sees the paper's 300/500/700 MB states
	// regardless of the in-memory reduction factor.
	s.nominalBytes = int64(fullItems)*nominalItem +
		int64(fullAuthors)*nominalAuthor +
		int64(fullCustomers)*nominalCustomer +
		int64(fullAddresses)*nominalAddress +
		int64(fullOrders)*(nominalOrder+nominalCC+3*nominalLine)

	return s
}

// Info returns the RBE-visible population knowledge.
func (s *Store) Info() PopulationInfo {
	info := PopulationInfo{
		Items:     int(s.cat.itemCount),
		Customers: s.customers.len(),
		Subjects:  s.cat.subjects,
	}
	for w := range s.cat.titleIndex {
		info.TitleTokens = append(info.TitleTokens, w)
	}
	for w := range s.cat.authorIndex {
		info.AuthorTokens = append(info.AuthorTokens, w)
	}
	// Deterministic order for reproducible workloads.
	sort.Strings(info.TitleTokens)
	sort.Strings(info.AuthorTokens)
	return info
}

// loader spells the text values of one population. Text that rows repeat
// is spelled once and looked up by the number drawn for it: 72,000
// addresses share 999 streets of each kind and 500 cities, 10,000 items 100
// publishers, and 36,000 customers some 8,400 last names, indexed by their
// syllables. Every value is spelled into an arena (textChunk) and is a
// substring of its chunk: a row shares a chunk as safely as it holds a
// string of its own, since nothing writes a string, and a chunk lives while
// any of its strings does, as a slab array lives while any row in it does.
// A loader belongs to one Populate call.
type loader struct {
	streets    [2][]string // by kind (Main St, Second St), then drawn number
	cities     []string
	publishers []string
	names      []string // two syllables at a·20+b, three at 400+(a·20+b)·20+c

	chunk strings.Builder // the arena chunk being filled
	from  int             // where in chunk the value being spelled starts
	digit [20]byte
}

// textChunk is the size of an arena chunk, and textMax a bound on one value:
// a value starts a fresh chunk unless textMax bytes are left in the current
// one. A longer value would still be correct: the chunk would move on to a
// larger array and leave the strings already cut from the old one in place.
const (
	textChunk = 64 << 10
	textMax   = 64
)

func newLoader() *loader {
	l := &loader{
		cities:     make([]string, 500),
		publishers: make([]string, 100),
		names:      make([]string, len(authorSyllables)*len(authorSyllables)*(1+len(authorSyllables))),
	}
	l.streets[0] = make([]string, 999)
	l.streets[1] = make([]string, 999)
	return l
}

// begin starts a value in the arena, end returns it.
func (l *loader) begin() {
	if l.chunk.Cap()-l.chunk.Len() < textMax {
		l.chunk = strings.Builder{}
		l.chunk.Grow(textChunk)
	}
	l.from = l.chunk.Len()
}

func (l *loader) end() string { return l.chunk.String()[l.from:] }

func (l *loader) int(n int) { l.chunk.Write(strconv.AppendInt(l.digit[:0], int64(n), 10)) }

// number spells prefix, n in decimal and suffix.
func (l *loader) number(prefix string, n int, suffix string) string {
	l.begin()
	l.chunk.WriteString(prefix)
	l.int(n)
	l.chunk.WriteString(suffix)
	return l.end()
}

// title spells a book title: two words and the item's number.
func (l *loader) title(w1, w2 string, n int) string {
	l.begin()
	l.chunk.WriteString(w1)
	l.chunk.WriteByte(' ')
	l.chunk.WriteString(w2)
	l.chunk.WriteByte(' ')
	l.int(n)
	return l.end()
}

// shared returns what number spells, from tab at n, spelled the first time
// n is drawn.
func (l *loader) shared(tab []string, n int, prefix, suffix string) string {
	if tab[n] == "" {
		tab[n] = l.number(prefix, n, suffix)
	}
	return tab[n]
}

// name draws an author's or a customer's last name, two or three
// syllables.
func (l *loader) name(rng *xrand.Rand) string {
	n := 2 + rng.Intn(2)
	var syl [3]int
	slot := 0
	for i := 0; i < n; i++ {
		syl[i] = rng.Intn(len(authorSyllables))
		slot = slot*len(authorSyllables) + syl[i]
	}
	if n == 3 {
		slot += len(authorSyllables) * len(authorSyllables)
	}
	if l.names[slot] == "" {
		l.begin()
		for _, k := range syl[:n] {
			l.chunk.WriteString(authorSyllables[k])
		}
		l.names[slot] = l.end()
	}
	return l.names[slot]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
