package webtier

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
)

// readerCluster boots a 3-voter group with learner-backed readers.
func readerCluster(t *testing.T, readers int) *Cluster {
	t.Helper()
	c := testCluster(t, 3, func(cfg *Config) { cfg.Readers = readers })
	c.Sim().RunFor(3 * time.Second) // extra boot: readers must be accepting
	for j := 0; j < readers; j++ {
		if i := c.Readers(0)[j]; !c.accepting(i) {
			t.Fatalf("reader %d (flat %d) did not boot", j, i)
		}
	}
	return c
}

// dispatchAll pushes each request through the proxy internals, records
// the server it landed on, and completes it with an OK reply carrying
// the given commit index (so write acks fold into the session fence
// exactly as a served write would).
func dispatchAll(c *Cluster, reqs []rbe.Request, commit paxos.InstanceID) []int {
	s := c.Sim()
	servers := make([]int, 0, len(reqs))
	s.At(s.Now(), func() {
		p := c.proxy
		for _, req := range reqs {
			r := p.newReq(req, func(rbe.Response) {})
			p.dispatch(r)
			servers = append(servers, r.server)
			p.onResponse(respMsg{ID: r.curID, Resp: rbe.Response{}, Commit: commit})
		}
	})
	s.RunFor(time.Second)
	return servers
}

func repeat(req rbe.Request, n int) []rbe.Request {
	out := make([]rbe.Request, n)
	for i := range out {
		out[i] = req
	}
	return out
}

// TestLaggingReaderFencedReads: a learner cut off from its voters lags
// behind the session's acked writes. The session's fenced reads that
// land on it must wait, expire into TooStale past the staleness bound,
// and be transparently re-served by a voter — never an error, never a
// read below the fence.
func TestLaggingReaderFencedReads(t *testing.T) {
	c := readerCluster(t, 1)
	s := c.Sim()
	reader := c.Readers(0)[0]
	// Sever voter→reader links: the learner stops hearing chosen values.
	// Its proxy link stays up, so it remains in the read rotation.
	deaf := s.Links().Open(netfault.Fault{Nodes: []env.NodeID{c.servers[reader].id},
		Peers: []env.NodeID{c.servers[0].id, c.servers[1].id, c.servers[2].id}, Dir: env.LinkInboundOnly, Sever: true})
	resp, got := do(c, rbe.Request{Client: 7, Kind: rbe.ShoppingCart, Item: 5, Qty: 1})
	if !got || resp.Err || resp.Cart == 0 {
		t.Fatalf("cart write failed: %+v got=%v", resp, got)
	}
	resp, got = do(c, rbe.Request{Client: 7, Kind: rbe.BuyConfirm, Cart: resp.Cart, Customer: 1, Item: 5})
	if !got || resp.Err || resp.Order == 0 {
		t.Fatalf("purchase failed: %+v got=%v", resp, got)
	}
	order := resp.Order
	if c.proxy.sessFence[7].idx == 0 {
		t.Fatal("acked writes did not set the session's fence")
	}
	if _, ok := c.Store(reader).GetOrder(order); ok {
		t.Fatal("cut-off reader already has the order; the lag setup is broken")
	}
	if _, ok := c.Store(0).GetOrder(order); !ok {
		t.Fatal("voter 0 is missing the acked order")
	}
	// Eight fenced reads: the rotation lands some on the lagging reader.
	for i := 0; i < 8; i++ {
		if resp, got := do(c, rbe.Request{Client: 7, Kind: rbe.Home, Item: 1}); !got || resp.Err {
			t.Fatalf("fenced read %d failed: %+v got=%v", i, resp, got)
		}
	}
	_, fw, ss := c.ReadStats(0)
	if fw == 0 {
		t.Error("no fenced read ever waited on the lagging reader")
	}
	if ss == 0 {
		t.Error("no fence wait expired into a TooStale fallback")
	}
	if st := c.ProxyStats(); st.StaleRedispatched == 0 {
		t.Errorf("TooStale replies were not redispatched to the voters: %+v", st)
	}
	if v := c.FenceViolations(); v != 0 {
		t.Fatalf("%d fenced reads served below their fence", v)
	}
	// Heal: the learner catches up off the voters' learn stream.
	deaf.Heal()
	s.RunFor(15 * time.Second)
	if _, ok := c.Store(reader).GetOrder(order); !ok {
		t.Fatal("healed reader never caught up to the acked order")
	}
}

// TestReaderZeroVoterFencedReads: with no learner readers the fences
// engage on the voters themselves — one client's reads rotate across the
// group's voting replicas (a trailing non-leader voter is now a
// legitimate read server), acked commit indices fold into the session
// fence, writes keep their voter hash affinity, and no read is ever
// served below its fence.
func TestReaderZeroVoterFencedReads(t *testing.T) {
	c := testCluster(t, 3, nil)
	dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.ShoppingCart, Item: 1, Qty: 1}, 1), 7)
	if f := c.proxy.sessFence[42].idx; f != 7 {
		t.Fatalf("Readers=0 did not fold the acked commit index into the fence: got %d, want 7", f)
	}
	reads := dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1}, 6), 0)
	distinct := map[int]bool{}
	for _, srv := range reads {
		distinct[srv] = true
		if c.servers[srv].learner {
			t.Fatalf("Readers=0 dispatched a read to a reader index %d", srv)
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("Readers=0 reads stayed pinned to one voter: %v", reads)
	}
	writes := dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.ShoppingCart, Item: 2, Qty: 1}, 4), 0)
	for _, srv := range writes {
		if srv != writes[0] {
			t.Fatalf("writes lost their hash affinity: %v", writes)
		}
	}
	// End-to-end: real fenced reads against the voters never serve below
	// the session's acked writes.
	resp, got := do(c, rbe.Request{Client: 7, Kind: rbe.ShoppingCart, Item: 5, Qty: 1})
	if !got || resp.Err || resp.Cart == 0 {
		t.Fatalf("cart write failed: %+v got=%v", resp, got)
	}
	for i := 0; i < 8; i++ {
		if resp, got := do(c, rbe.Request{Client: 7, Kind: rbe.Home, Item: 1}); !got || resp.Err {
			t.Fatalf("fenced read %d failed: %+v got=%v", i, resp, got)
		}
	}
	if v := c.FenceViolations(); v != 0 {
		t.Fatalf("%d fenced reads served below their fence", v)
	}
}

// TestReaderRotationAndFenceFold: with readers present, one client's
// reads spread across several read-serving nodes (no more hot-client
// pinning), writes keep their voter hash affinity, and acked commit
// indices fold monotonically into the session fence.
func TestReaderRotationAndFenceFold(t *testing.T) {
	c := readerCluster(t, 1)
	dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.ShoppingCart, Item: 1, Qty: 1}, 1), 7)
	if f := c.proxy.sessFence[42].idx; f != 7 {
		t.Fatalf("fence after first acked write = %d, want 7", f)
	}
	// A retried older ack must not lower the fence.
	dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.ShoppingCart, Item: 1, Qty: 1}, 1), 3)
	if f := c.proxy.sessFence[42].idx; f != 7 {
		t.Fatalf("stale ack lowered the fence to %d", f)
	}
	reads := dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1}, 6), 0)
	distinct := map[int]bool{}
	for _, srv := range reads {
		distinct[srv] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("one client's reads stayed pinned to one server with readers present: %v", reads)
	}
	writes := dispatchAll(c, repeat(rbe.Request{Client: 42, Kind: rbe.ShoppingCart, Item: 2, Qty: 1}, 4), 0)
	for _, srv := range writes {
		if srv != writes[0] {
			t.Fatalf("writes lost their hash affinity: %v", writes)
		}
		if c.servers[srv].learner {
			t.Fatalf("a write was dispatched to reader %d", srv)
		}
	}
}

// TestReadRetryAvoidsFailedServerWithReaders: the transparent retry of a
// server-side read error must not re-land on the failed server when the
// rotation (rather than the deterministic client hash) picked it.
func TestReadRetryAvoidsFailedServerWithReaders(t *testing.T) {
	c := readerCluster(t, 1)
	s := c.Sim()
	var first, second int
	s.At(s.Now(), func() {
		p := c.proxy
		r := p.newReq(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1}, func(rbe.Response) {})
		p.dispatch(r)
		first = r.server
		p.onResponse(respMsg{ID: r.curID, Resp: rbe.Response{Err: true}})
		second = r.server
		p.onResponse(respMsg{ID: r.curID, Resp: rbe.Response{}})
	})
	s.RunFor(time.Second)
	if second == first {
		t.Fatalf("read retry re-landed on server %d, which just failed it", first)
	}
}
