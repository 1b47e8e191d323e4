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

// Populate builds a store with the standard TPC-W population.
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

	base := time.Date(2008, 1, 1, 0, 0, 0, 0, time.UTC)
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
	var text texts

	// Countries (TPC-W: 92 rows).
	for i := 1; i <= 92; i++ {
		name := "Country " + strconv.Itoa(i)
		if i <= len(countryNames) {
			name = countryNames[i-1]
		}
		cat.countries = append(cat.countries, Country{
			ID: CountryID(i), Name: name, Currency: "USD",
			Exchange: 1 + rng.Float64(),
		})
	}

	// Authors.
	for i := 1; i <= authors; i++ {
		a := Author{
			ID:    AuthorID(i),
			FName: "A" + strconv.Itoa(i),
			LName: text.name(rng),
			DOB:   base.AddDate(-30-rng.Intn(50), 0, 0),
			Bio:   "bio",
		}
		cat.authors[a.ID] = a
	}

	// Items.
	type pubEntry struct {
		id  ItemID
		pub time.Time
	}
	pubBySubject := make(map[string][]pubEntry)
	for i := 1; i <= items; i++ {
		id := ItemID(i)
		w1 := titleWords[rng.Intn(len(titleWords))]
		w2 := titleWords[rng.Intn(len(titleWords))]
		subject := subjects[rng.Intn(len(subjects))]
		author := AuthorID(rng.Intn(authors) + 1)
		srp := 10 + rng.Float64()*90
		// A population is a function of its seed: the draws below keep
		// this order (publication date, publisher, cost, stock, pages).
		pub := base.AddDate(0, 0, -rng.Intn(3650))
		publisher := text.shared("PUB", rng.Intn(100), "")
		row := &itemRow{
			head: itemHead{
				Cost:      srp * (0.5 + rng.Float64()*0.5),
				Stock:     int32(10 + rng.Intn(21)),
				Image:     "img/full/" + strconv.Itoa(i),
				Thumbnail: "img/thumb/" + strconv.Itoa(i),
			},
			body: itemBody{
				ID:        id,
				Title:     w1 + " " + w2 + " " + strconv.Itoa(i),
				Author:    author,
				PubDate:   stampOf(pub),
				Publisher: publisher,
				Subject:   subject,
				Desc:      "desc",
				SRP:       srp,
				Avail:     stampOf(base),
				ISBN:      "ISBN" + strconv.Itoa(i),
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
			if !entries[i].pub.Equal(entries[j].pub) {
				return entries[i].pub.After(entries[j].pub)
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

	// Customers and their addresses.
	for i := 1; i <= customers; i++ {
		addr := s.addAddress(
			text.shared("", rng.Intn(999), " Main St"), "",
			text.shared("City", rng.Intn(500), ""), "ST",
			strconv.Itoa(10000+rng.Intn(89999)),
			CountryID(rng.Intn(92)+1),
		)
		// Second address per customer (TPC-W: 2x addresses).
		s.addAddress(
			text.shared("", rng.Intn(999), " Second St"), "",
			text.shared("City", rng.Intn(500), ""), "ST",
			strconv.Itoa(10000+rng.Intn(89999)),
			CountryID(rng.Intn(92)+1),
		)
		id := CustomerID(i)
		s.addCustomer(customerBody{
			ID:        id,
			FName:     text.number("F", i, ""),
			LName:     text.name(rng),
			Addr:      addr,
			Phone:     strconv.Itoa(1000000000 + rng.Intn(899999999)),
			Email:     text.number("C", i, "@example.com"), // UserName(id) + "@example.com"
			Since:     stampOf(base.AddDate(0, 0, -rng.Intn(730))),
			Discount:  float64(rng.Intn(51)),
			BirthDate: stampOf(base.AddDate(-18-rng.Intn(60), 0, 0)),
			Data:      "data",
		}, base)
	}
	s.nextCustomer = CustomerID(customers)

	// Historical orders (90 % of customers), newest last so the
	// recent-order ring holds the latest bestSellerWindow of them.
	for i := 1; i <= orders; i++ {
		cust := CustomerID(rng.Intn(customers) + 1)
		nLines := 1 + rng.Intn(4)
		lines := s.orderLines(nLines)
		var subTotal float64
		for l := 0; l < nLines; l++ {
			iid := ItemID(rng.Intn(items) + 1)
			qty := int32(1 + rng.Intn(3))
			item, _ := s.items.get(iid)
			subTotal += item.Cost * float64(qty)
			lines = append(lines, OrderLine{Item: iid, Qty: qty})
		}
		tax := subTotal * taxRate
		date := base.AddDate(0, 0, -rng.Intn(365))
		buyer, _ := s.customers.get(cust)
		s.addOrder(orderRow{
			Customer: cust,
			Date:     stampOf(date),
			SubTotal: subTotal,
			Tax:      tax,
			Total:    subTotal + tax + shippingCost(nLines),
			ShipType: "MAIL",
			ShipDate: stampOf(date.AddDate(0, 0, 1+rng.Intn(7))),
			Status:   "SHIPPED",
			BillAddr: buyer.Addr,
			ShipAddr: buyer.Addr,
			Lines:    lines,
			CC: ccRow{
				Type: "VISA", Num: "4111111111111111",
				Name: buyer.FName, Expire: stampOf(base.AddDate(2, 0, 0)),
				Total: subTotal + tax, ShipAt: stampOf(date), Country: 1,
			},
		})
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

// texts spells the text values of a population, and builds each value that
// rows repeat once: 72,000 addresses share 999 streets of each kind and 500
// cities, and 36,000 customers some 8,400 last names. A row shares a string
// as safely as it holds its own, since nothing writes a string. Each method
// returns a string, never the buffer: a composite literal may evaluate every
// call in it before it converts the first result.
type texts struct {
	buf  []byte            // the value being spelled
	seen map[string]string // every value shared, by its spelling
}

// number returns prefix, n in decimal and suffix, as a string of its own.
func (t *texts) number(prefix string, n int, suffix string) string {
	t.spell(prefix, n, suffix)
	return string(t.buf)
}

// shared returns the same text as number, built the first time it is asked
// for.
func (t *texts) shared(prefix string, n int, suffix string) string {
	t.spell(prefix, n, suffix)
	return t.intern()
}

// name draws an author's or a customer's last name, two or three syllables,
// and returns it shared.
func (t *texts) name(rng *xrand.Rand) string {
	n := 2 + rng.Intn(2)
	t.buf = t.buf[:0]
	for i := 0; i < n; i++ {
		t.buf = append(t.buf, authorSyllables[rng.Intn(len(authorSyllables))]...)
	}
	return t.intern()
}

func (t *texts) spell(prefix string, n int, suffix string) {
	t.buf = append(strconv.AppendInt(append(t.buf[:0], prefix...), int64(n), 10), suffix...)
}

// intern returns the string the buffer spells, built the first time.
func (t *texts) intern() string {
	if v, ok := t.seen[string(t.buf)]; ok {
		return v
	}
	if t.seen == nil {
		t.seen = make(map[string]string)
	}
	v := string(t.buf)
	t.seen[v] = v
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
