package rbe

import (
	"math"
	"testing"
	"time"

	"robuststore/internal/metrics"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

func TestWriteFractionsMatchTPCW(t *testing.T) {
	// Paper §3: browsing 5 %, shopping 20 %, ordering 50 % writes
	// (TPC-W's actual mix classification yields 4.35/18.5/49.4).
	cases := []struct {
		profile Profile
		want    float64
		tol     float64
	}{
		{Browsing, 0.0435, 0.001},
		{Shopping, 0.1849, 0.001},
		{Ordering, 0.4941, 0.001},
	}
	for _, tc := range cases {
		if got := tc.profile.WriteFraction(); math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%v write fraction = %v, want %v", tc.profile, got, tc.want)
		}
	}
}

func TestMixSumsTo100Percent(t *testing.T) {
	for _, p := range Profiles {
		total := 0
		for _, row := range mixes[p] {
			total += row.weight
		}
		if total != 10000 {
			t.Errorf("%v mix sums to %d, want 10000", p, total)
		}
	}
}

func TestPickFollowsMix(t *testing.T) {
	rng := xrand.New(4)
	const n = 200000
	counts := make(map[Interaction]int)
	for i := 0; i < n; i++ {
		counts[Shopping.pick(rng)]++
	}
	// Home is 16 % of the shopping mix.
	got := float64(counts[Home]) / n
	if math.Abs(got-0.16) > 0.01 {
		t.Errorf("home frequency = %v, want ≈0.16", got)
	}
	// Every interaction appears.
	for _, row := range mixes[Shopping] {
		if counts[row.kind] == 0 {
			t.Errorf("%v never drawn", row.kind)
		}
	}
}

func TestInteractionNames(t *testing.T) {
	for i := Home; i <= AdminConfirm; i++ {
		if i.String() == "" {
			t.Errorf("interaction %d has no name", i)
		}
	}
	if Browsing.String() != "browsing" || Profile(99).String() != "unknown" {
		t.Error("profile names")
	}
}

// fakeSched is a manual virtual clock for driving browsers.
type fakeSched struct {
	now    time.Time
	queue  []fakeEvent
	serial int
}

type fakeEvent struct {
	at time.Time
	fn func()
}

func (f *fakeSched) Now() time.Time { return f.now }

func (f *fakeSched) After(d time.Duration, fn func()) {
	f.queue = append(f.queue, fakeEvent{at: f.now.Add(d), fn: fn})
}

func (f *fakeSched) runUntil(t time.Time) {
	for {
		best := -1
		for i, e := range f.queue {
			if !e.at.After(t) && (best < 0 || e.at.Before(f.queue[best].at)) {
				best = i
			}
		}
		if best < 0 {
			f.now = t
			return
		}
		e := f.queue[best]
		f.queue = append(f.queue[:best], f.queue[best+1:]...)
		f.now = e.at
		e.fn()
	}
}

// scriptedFrontend answers everything instantly and records requests. It
// also tracks the cart it assigned per client to validate session
// behaviour.
type scriptedFrontend struct {
	reqs       []Request
	nextCart   tpcw.CartID
	assigned   map[int64]tpcw.CartID
	violations int
	failAll    bool
}

func (s *scriptedFrontend) Do(req Request, done func(Response)) {
	s.reqs = append(s.reqs, req)
	if s.assigned == nil {
		s.assigned = make(map[int64]tpcw.CartID)
	}
	if s.failAll {
		done(Response{Err: true})
		return
	}
	var resp Response
	switch req.Kind {
	case ShoppingCart, BuyRequest:
		if req.Cart != 0 && req.Cart != s.assigned[req.Client] {
			s.violations++
		}
		if req.Cart == 0 {
			s.nextCart++
			s.assigned[req.Client] = s.nextCart
			resp.Cart = s.nextCart
		} else {
			resp.Cart = req.Cart
		}
	case CustomerRegistration:
		resp.Customer = 42
		resp.UName = "C42"
	case BuyConfirm:
		if req.Cart != 0 && req.Cart != s.assigned[req.Client] {
			s.violations++
		}
		delete(s.assigned, req.Client)
		resp.Order = 7
	}
	done(resp)
}

func runPopulation(t *testing.T, profile Profile, browsers int, dur time.Duration,
	front Frontend) (*Population, *fakeSched, *metrics.Recorder) {
	t.Helper()
	sched := &fakeSched{now: time.Unix(0, 0).UTC()}
	rec := metrics.NewShardedRecorder(sched.now, time.Second, 1, nil)
	pop := New(Config{
		Browsers:   browsers,
		Profile:    profile,
		ThinkTime:  time.Second,
		Population: tpcw.PopulationInfo{Items: 100, Customers: 50, Subjects: []string{"ARTS"}, TitleTokens: []string{"w"}, AuthorTokens: []string{"a"}},
		Seed:       5,
		Recorder:   rec,
		Stop:       sched.now.Add(dur),
	}, sched, front)
	pop.Start()
	sched.runUntil(sched.now.Add(dur + 10*time.Second))
	return pop, sched, rec.Aggregate()
}

func TestClosedLoopThroughput(t *testing.T) {
	front := &scriptedFrontend{}
	pop, _, rec := runPopulation(t, Shopping, 50, 60*time.Second, front)
	// Instant responses, mean think 1 s -> ≈50 interactions/s.
	awips := rec.AWIPS(5, 55)
	if awips < 40 || awips > 60 {
		t.Errorf("AWIPS = %v, want ≈50", awips)
	}
	if pop.Errors() != 0 {
		t.Errorf("errors = %d", pop.Errors())
	}
	if pop.Completed() == 0 || pop.Issued() < pop.Completed() {
		t.Errorf("issued=%d completed=%d", pop.Issued(), pop.Completed())
	}
}

func TestBrowserSessionsUseCarts(t *testing.T) {
	front := &scriptedFrontend{}
	runPopulation(t, Ordering, 10, 120*time.Second, front)
	// After a cart is created, later cart interactions from the same
	// browser must reference it (until a purchase consumes it); the
	// frontend counted any mismatch.
	if front.violations > 0 {
		t.Errorf("%d cart-session violations", front.violations)
	}
	// The ordering profile must actually produce purchases.
	buys := 0
	for _, req := range front.reqs {
		if req.Kind == BuyConfirm {
			buys++
		}
	}
	if buys == 0 {
		t.Error("no buy-confirm interactions generated")
	}
}

func TestBrowserDropsCartOnError(t *testing.T) {
	front := &scriptedFrontend{failAll: true}
	runPopulation(t, Ordering, 5, 60*time.Second, front)
	// With every response failing, browsers must never get wedged on a
	// cart id (they reset to 0), so all cart requests carry cart 0.
	for _, req := range front.reqs {
		if req.Kind == ShoppingCart && req.Cart != 0 {
			t.Fatalf("browser reused cart %d after errors", req.Cart)
		}
	}
}

func TestStopEndsLoad(t *testing.T) {
	front := &scriptedFrontend{}
	pop, sched, _ := runPopulation(t, Browsing, 20, 30*time.Second, front)
	at := pop.Issued()
	sched.runUntil(sched.now.Add(30 * time.Second))
	if pop.Issued() != at {
		t.Errorf("browsers kept issuing after Stop: %d -> %d", at, pop.Issued())
	}
}

func TestRequestParametersInRange(t *testing.T) {
	front := &scriptedFrontend{}
	runPopulation(t, Shopping, 20, 60*time.Second, front)
	for _, req := range front.reqs {
		switch req.Kind {
		case Home, ProductDetail, AdminRequest, AdminConfirm:
			if req.Item < 1 || int(req.Item) > 100 {
				t.Fatalf("item %d out of range for %v", req.Item, req.Kind)
			}
		case NewProducts, BestSellers:
			if req.Subject == "" {
				t.Fatalf("no subject for %v", req.Kind)
			}
		case SearchResults:
			if req.SearchTerm == "" || req.SearchKind == 0 {
				t.Fatalf("unresolved search request")
			}
		case OrderInquiry, OrderDisplay:
			if req.Customer < 1 {
				t.Fatalf("no customer for %v", req.Kind)
			}
		}
	}
}

func TestNewNormalizesTypedNilRecorder(t *testing.T) {
	var rec *metrics.ShardedRecorder // typed nil stored in the interface field
	p := New(Config{Browsers: 1, Recorder: rec}, &fakeSched{}, &scriptedFrontend{})
	if p.cfg.Recorder != nil {
		t.Fatal("typed-nil recorder must be normalized to nil")
	}
}

// nullSched runs every callback on the next turn, whatever its delay, and
// nullFrontend answers on the spot: between them a browser's loop is all
// that runs.
type nullSched struct{ due, spare []func() }

func (n *nullSched) Now() time.Time                   { return time.Time{} }
func (n *nullSched) After(_ time.Duration, fn func()) { n.due = append(n.due, fn) }

func (n *nullSched) turn() {
	run := n.due
	n.due = n.spare[:0]
	for _, fn := range run {
		fn()
	}
	n.spare = run
}

type nullFrontend struct{}

func (nullFrontend) Do(req Request, done func(Response)) { done(Response{Cart: 1, Order: 1}) }

// TestBrowserLoopAllocs: once Start has built the browsers, issuing an
// interaction, taking its answer and thinking allocate nothing — the
// request lives in the browser and both continuations are bound once.
func TestBrowserLoopAllocs(t *testing.T) {
	const browsers = 100
	sched := &nullSched{}
	pop := New(Config{
		Browsers:   browsers,
		Profile:    Ordering,
		Population: tpcw.PopulationInfo{Items: 100, Customers: 50, Subjects: []string{"ARTS"}, TitleTokens: []string{"w"}, AuthorTokens: []string{"a"}},
		Seed:       5,
	}, sched, nullFrontend{})
	pop.Start()
	sched.turn()
	sched.turn() // both queues have grown to the population
	before := pop.Completed()
	if n := testing.AllocsPerRun(50, sched.turn); n != 0 {
		t.Errorf("%.2f allocations per turn of %d interactions, want 0", n, browsers)
	}
	if got := pop.Completed() - before; got != 51*browsers {
		t.Errorf("%d interactions completed in 51 turns of %d browsers", got, browsers)
	}
}
