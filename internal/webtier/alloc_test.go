package webtier

import (
	"strconv"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// TestRequestAllocBudget holds the request path's allocation diet: on a
// failure-free 3-server group, once a warm-up has filled the free lists — the
// proxy's and the servers' records, the cluster's wire records, the leader's
// vote sets — an interaction through Cluster.Frontend() costs, net of the
// group's idle traffic (heartbeats, probes — measured first, over the same
// span),
//
//   - a read (ProductDetail) nothing: its reqMsg and respMsg are recycled
//     wire records and its timeout re-arms the proxy record's timer;
//   - a write (ShoppingCart adding to the session's cart) 7: the action
//     boxed for Submit (1); 4.5 in tpcw.Apply on three replicas (the copy of
//     the cart's lines, the boxed CartResult); and about 1.5 objects under
//     16 B without pointers, which the runtime packs into shared blocks and
//     its allocation profile does not attribute. Ordering it costs next to
//     nothing: the values, votes, accepts and announcements, and the
//     command slices of the round's batches (none above 8 commands), come
//     from the engines' slabs, one allocation per 16 KiB array, a forward
//     is the value's pointer and boxes nothing, and the disk's sync
//     completion is bound once. (It read 9.66 while those were allocated
//     per message, per batch and per sync.) A cart write keeps no row the
//     store carves from its slabs, so taking the rows from them left it at
//     7, and so did carving each value once, which saves bytes (a vote is
//     32 B, not 88), not allocations.
//
// No record, continuation, timer, wire message, vote set, candidate slice or
// routing key is among them. The budgets are the measured figures + 10 %.
func TestRequestAllocBudget(t *testing.T) {
	c := testCluster(t, 3, nil)
	s, front := c.Sim(), c.Frontend()
	const batch = 32
	issued, answered, failed := 0, 0, 0
	done := func(resp rbe.Response) {
		answered++
		if resp.Err {
			failed++
		}
	}
	carts := make([]rbe.Response, batch)
	for i := range carts {
		i := i
		s.At(s.Now(), func() {
			front.Do(rbe.Request{Client: int64(i + 1), Kind: rbe.ShoppingCart, Item: 7, Qty: 1},
				func(resp rbe.Response) { carts[i] = resp })
		})
	}
	s.RunFor(time.Second)
	var req rbe.Request
	issue := func() {
		for i := 0; i < batch; i++ {
			req.Client, req.Cart = int64(i+1), carts[i].Cart
			front.Do(req, done)
		}
		issued += batch
	}
	const span = 250 * time.Millisecond
	round := func() {
		s.At(s.Now(), issue)
		s.RunFor(span)
	}
	idle := testing.AllocsPerRun(20, func() { s.RunFor(span) })
	for _, k := range []struct {
		name   string
		req    rbe.Request
		budget float64
	}{
		{"read", rbe.Request{Kind: rbe.ProductDetail, Item: 5}, 0.3},
		{"write", rbe.Request{Kind: rbe.ShoppingCart, Item: 7, Qty: 1}, 7.7},
	} {
		req = k.req
		round() // warm-up: free lists, scratch slices, event heap
		per := (testing.AllocsPerRun(20, round) - idle) / batch
		t.Logf("%s: %.2f allocs per interaction", k.name, per)
		s.RunFor(time.Second) // a write may outlast its round
		if answered != issued || failed != 0 {
			t.Fatalf("%s: %d interactions issued, %d answered, %d failed", k.name, issued, answered, failed)
		}
		if per > k.budget {
			t.Fatalf("%s: %.2f allocs per interaction, budget %.1f", k.name, per, k.budget)
		}
	}
}

// TestTxnGateBuildsNoKeys: while a branch is prepared, every write passes the
// transaction gate, which asks the replica about each row the write may touch
// (txnBlocked). It asks by key prefix and ID and builds no key: a blocked write
// and a free one allocate nothing to be told so. The held branch is a sweep of
// items 3 and 4, ordered as a bare prepare that nothing resolves.
func TestTxnGateBuildsNoKeys(t *testing.T) {
	c := testCluster(t, 3, nil)
	c.Sim().RunFor(time.Second)
	lead := c.LeaderOf(0)
	if lead < 0 {
		t.Fatal("no leader")
	}
	sweep := tpcw.InventorySweepAction{Items: []tpcw.ItemID{3, 4}, Cost: 1, Tag: "held"}
	c.Replica(lead).Submit(core.TxnPrepare{ID: "held", Home: 0, Action: sweep, Keys: tpcw.TxnKeys(sweep)}, func(any, error) {})
	c.Sim().RunFor(time.Second)
	s := c.Server(lead)
	if !s.replica.HasPreparedTxns() {
		t.Fatal("the prepare left no branch staged")
	}
	for _, k := range []struct {
		name    string
		req     rbe.Request
		blocked bool
	}{
		{"cart write", rbe.Request{Kind: rbe.ShoppingCart, Cart: 3, Customer: 4, Item: 3}, false},
		{"gift", rbe.Request{Kind: rbe.GiftPurchase, Cart: 5, Customer: 6, Peer: 7}, false},
		{"admin update of a free item", rbe.Request{Kind: rbe.AdminConfirm, Item: 34}, false},
		{"admin update of a swept item", rbe.Request{Kind: rbe.AdminConfirm, Item: 3}, true},
		{"sweep over a swept item", rbe.Request{Kind: rbe.StockSweep, Items: []tpcw.ItemID{40, 4}}, true},
	} {
		if got := s.txnBlocked(&k.req); got != k.blocked {
			t.Errorf("%s: blocked %v, want %v", k.name, got, k.blocked)
		}
		if n := testing.AllocsPerRun(100, func() { s.txnBlocked(&k.req) }); n != 0 {
			t.Errorf("%s: the gate allocated %.1f times", k.name, n)
		}
	}
}

// TestNumberedStrings: the strings act builds for an action's fields are the
// bytes the concatenation of strconv.Itoa's result gave, in one allocation.
func TestNumberedStrings(t *testing.T) {
	for _, c := range []struct {
		prefix, suffix string
		n              int
	}{
		{"F", "", 0}, {"L", "", 9999}, {"", " Web St", 998}, {"City", "", 42},
		{"img/full/new", "", 999}, {"img/thumb/new", "", 7}, {"a-prefix-longer-than-the-stack-buffer-", "!", 123456},
	} {
		want := c.prefix + strconv.Itoa(c.n) + c.suffix
		if got := numbered(c.prefix, c.n, c.suffix); got != want {
			t.Errorf("numbered(%q, %d, %q) = %q, want %q", c.prefix, c.n, c.suffix, got, want)
		}
		if len(want) <= 32 {
			if n := testing.AllocsPerRun(100, func() { numbered(c.prefix, c.n, c.suffix) }); n != 1 {
				t.Errorf("numbered(%q, %d, %q): %v allocs, want 1", c.prefix, c.n, c.suffix, n)
			}
		}
	}
}
