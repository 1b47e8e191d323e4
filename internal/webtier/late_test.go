package webtier

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
)

// Regression tests for late server responses arriving at the proxy after
// the request's lifecycle already ended — expired, retried, or finished.
// The migration cutover path stresses exactly these races (a response
// from the old group can trail the epoch switch), so the proxy must be
// immune to double-finish and to resurrecting dead requests.

// lateHarness dispatches one request directly and returns the outReq and
// its outstanding ID so the test can deliver protocol messages by hand.
func lateHarness(t *testing.T, c *Cluster, kind rbe.Interaction, done func(rbe.Response)) (*outReq, int64) {
	t.Helper()
	p := c.proxy
	r := p.newReq(rbe.Request{Client: 42, Kind: kind, Item: 1}, done)
	p.dispatch(r)
	for id, v := range p.outstanding {
		if v == r {
			return r, id
		}
	}
	t.Fatal("request not outstanding after dispatch")
	return nil, 0
}

// TestLateResponseAfterExpiryIsIgnored: a read whose reply never returns
// (a silent server — one-way loss) is redispatched once on its first
// timeout; the second timeout fails the client, and responses trailing in
// after either attempt must be dropped — finishing again would call done
// twice.
func TestLateResponseAfterExpiryIsIgnored(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	finishes := 0
	var last rbe.Response
	s.At(s.Now(), func() {
		r, id := lateHarness(t, c, rbe.Home, func(resp rbe.Response) { finishes++; last = resp })
		p := c.proxy
		// First expiry of a read: redispatched away from the silent
		// server, not failed — outstanding again under a fresh ID.
		p.expire(id)
		if r.finished || finishes != 0 {
			t.Fatalf("first read expiry must redispatch, not finish: finishes=%d", finishes)
		}
		var retryID int64
		for nid, v := range p.outstanding {
			if v == r {
				retryID = nid
			}
		}
		if retryID == 0 || retryID == id {
			t.Fatalf("read not redispatched under a fresh ID after expiry (got %d)", retryID)
		}
		// The expired attempt's answer trails in: superseded, ignored.
		p.onResponse(respMsg{ID: id, Resp: rbe.Response{}})
		if finishes != 0 {
			t.Fatal("stale response to the expired attempt finished the request")
		}
		// The second expiry exhausts the retry budget: the client gets
		// the error, exactly once.
		p.expire(retryID)
		if finishes != 1 || !last.Err {
			t.Fatalf("expiry must finish the request with an error: finishes=%d resp=%+v", finishes, last)
		}
		// The server's answer arrives late: must be ignored entirely.
		p.onResponse(respMsg{ID: retryID, Resp: rbe.Response{}})
		p.onResponse(respMsg{ID: retryID, Resp: rbe.Response{}}) // and again
	})
	s.RunFor(time.Second)
	if finishes != 1 {
		t.Fatalf("done ran %d times, want exactly once", finishes)
	}
	if st := c.ProxyStats(); st.ErrTimeout != 1 || st.Redispatched != 1 {
		t.Fatalf("expected one timeout and one redispatch in stats, got %+v", st)
	}
}

// TestRetryWithLostReplyStillTimesOut: a server-error retry re-registers
// the request under a fresh outstanding ID; the end-to-end timer must
// follow it there. If the retry's reply is then lost (the retry landed
// on a server silenced by one-way loss), the client must get a timeout
// error — not hang forever with a timer keyed to the dead first attempt.
func TestRetryWithLostReplyStillTimesOut(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	finishes := 0
	var last rbe.Response
	s.At(s.Now(), func() {
		// Every server goes silent: requests arrive, replies vanish.
		c.FaultLinks([]int{0, 1, 2}, false, netfault.Fault{Dir: env.LinkOutboundOnly, Sever: true})
		p := c.proxy
		r, firstID := lateHarness(t, c, rbe.Home, func(resp rbe.Response) { finishes++; last = resp })
		// Server-side error: the read is transparently retried under a
		// fresh ID. Its reply never arrives (the retry's server is
		// silent too).
		p.onResponse(respMsg{ID: firstID, Resp: rbe.Response{Err: true}})
		if r.finished || r.curID == firstID {
			t.Fatalf("retry not re-registered: finished=%v curID=%d", r.finished, r.curID)
		}
	})
	// Run past the end-to-end request timeout: the timer must expire the
	// retried attempt and fail the client exactly once.
	s.RunFor(c.cfg.Cal.ReqTimeout + 2*time.Second)
	if finishes != 1 || !last.Err {
		t.Fatalf("retried request with lost reply never timed out: finishes=%d resp=%+v", finishes, last)
	}
	if st := c.ProxyStats(); st.ErrTimeout != 1 {
		t.Fatalf("expected one timeout in stats, got %+v", st)
	}
}

// TestStaleResponseAfterRetryIsSuperseded: when a read is redispatched,
// the first server's late answer must not finish the request — only the
// retry's answer may, exactly once, even if the original reply then
// trickles in.
func TestStaleResponseAfterRetryIsSuperseded(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	finishes := 0
	s.At(s.Now(), func() {
		p := c.proxy
		r, firstID := lateHarness(t, c, rbe.Home, func(rbe.Response) { finishes++ })
		// Server-side error triggers the transparent retry; the retry is
		// outstanding under a fresh ID.
		p.onResponse(respMsg{ID: firstID, Resp: rbe.Response{Err: true}})
		if r.finished {
			t.Fatal("request finished by the failed first attempt")
		}
		var retryID int64
		for id, v := range p.outstanding {
			if v == r {
				retryID = id
			}
		}
		if retryID == 0 || retryID == firstID {
			t.Fatalf("retry not outstanding under a fresh ID (got %d)", retryID)
		}
		// The first server's answer now trails in — superseded, ignored.
		p.onResponse(respMsg{ID: firstID, Resp: rbe.Response{}})
		if finishes != 0 {
			t.Fatal("stale first-attempt response finished the retried request")
		}
		// The retry completes; a duplicate of it is ignored too.
		p.onResponse(respMsg{ID: retryID, Resp: rbe.Response{}})
		p.onResponse(respMsg{ID: retryID, Resp: rbe.Response{}})
	})
	s.RunFor(time.Second)
	if finishes != 1 {
		t.Fatalf("done ran %d times, want exactly once", finishes)
	}
}

// TestStaleEpochResponseRedirects: a WrongEpoch answer (the request raced
// a rebalance cutover) re-routes the request instead of failing the
// client, and a late duplicate of the old answer cannot double-finish.
// This is the double-finish hazard of the cutover path in isolation.
func TestStaleEpochResponseRedirects(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	finishes := 0
	var resp rbe.Response
	s.At(s.Now(), func() {
		p := c.proxy
		r, firstID := lateHarness(t, c, rbe.ShoppingCart, func(rr rbe.Response) { finishes++; resp = rr })
		// The serving group answers "not mine any more".
		p.onResponse(respMsg{ID: firstID, Resp: rbe.Response{Err: true}, WrongEpoch: true})
		if r.finished || finishes != 0 {
			t.Fatal("epoch redirect must not finish the request")
		}
		if st := c.ProxyStats(); st.EpochRedirects != 1 || st.ErrServerSide != 0 {
			t.Fatalf("redirect accounting wrong: %+v", st)
		}
		// Late duplicate of the old answer: superseded, ignored.
		p.onResponse(respMsg{ID: firstID, Resp: rbe.Response{Err: true}, WrongEpoch: true})
		// The re-dispatched request is outstanding again and completes
		// normally (a write, untouched by the redirect accounting).
		var newID int64
		for id, v := range p.outstanding {
			if v == r {
				newID = id
			}
		}
		if newID == 0 {
			t.Fatal("request not re-dispatched after WrongEpoch")
		}
		p.onResponse(respMsg{ID: newID, Resp: rbe.Response{Cart: 7}})
	})
	s.RunFor(time.Second)
	if finishes != 1 || resp.Err || resp.Cart != 7 {
		t.Fatalf("redirected write did not complete cleanly: finishes=%d resp=%+v", finishes, resp)
	}
}

// TestEpochRedirectLoopBounded: endless WrongEpoch answers (a server
// stuck on a stale view) must not redispatch forever — after the cap the
// client gets an error, once.
func TestEpochRedirectLoopBounded(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	finishes := 0
	s.At(s.Now(), func() {
		p := c.proxy
		r, id := lateHarness(t, c, rbe.Home, func(rbe.Response) { finishes++ })
		for hops := 0; hops < 10 && !r.finished; hops++ {
			p.onResponse(respMsg{ID: id, Resp: rbe.Response{Err: true}, WrongEpoch: true})
			if r.finished {
				break
			}
			found := false
			for nid, v := range p.outstanding {
				if v == r {
					id, found = nid, true
				}
			}
			if !found {
				t.Fatal("request neither finished nor outstanding")
			}
		}
		if !r.finished {
			t.Fatal("unbounded WrongEpoch loop")
		}
	})
	s.RunFor(time.Second)
	if finishes != 1 {
		t.Fatalf("done ran %d times, want exactly once", finishes)
	}
	if st := c.ProxyStats(); st.EpochRedirects != 4 {
		t.Fatalf("expected the redirect cap (4), got %+v", st)
	}
}

// The proxy and the servers recycle their request records; the tests below
// check that nothing left over from a record's previous life — a late
// response, a stopped timer's slot in the event queue, a server reset, an
// expired fence waiter — reaches the request now using it.

// TestRecycledRecordIgnoresItsPreviousLife: a read's first attempt expires,
// the retry is answered and the request finishes; the next interaction takes
// the same record. The first life's late answers, the slot of its stopped
// timer and a reset of a server it had used must all leave the new request
// alone, and each client is answered exactly once. The responses arrive as
// the simulator delivers them, in wire records (deliver, wire_test.go): an
// ignored one is released like any other, once.
func TestRecycledRecordIgnoresItsPreviousLife(t *testing.T) {
	// Probe failures must not empty the rotation while replies are lost.
	c := testCluster(t, 3, func(cfg *Config) { cfg.Cal.ProbeFailures = 1 << 30 })
	s, p := c.Sim(), c.proxy
	find := func(client int64) *outReq {
		for _, r := range p.outstanding {
			if r.req.Client == client {
				return r
			}
		}
		t.Fatalf("client %d has no request outstanding", client)
		return nil
	}
	firstDone, secondDone := 0, 0
	// Every server goes silent: requests arrive, replies vanish.
	c.FaultLinks([]int{0, 1, 2}, false, netfault.Fault{Dir: env.LinkOutboundOnly, Sever: true})
	s.At(s.Now(), func() {
		c.Frontend().Do(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1}, func(rbe.Response) { firstDone++ })
	})
	s.RunFor(time.Second)
	first := find(42)
	firstID, firstServer := first.curID, first.server
	// The request timeout expires the silent attempt; the read is
	// redispatched under a fresh ID and a fresh timer.
	s.RunFor(c.cfg.Cal.ReqTimeout)
	if find(42) != first || first.curID == firstID || c.ProxyStats().Redispatched != 1 {
		t.Fatalf("read not redispatched on expiry: curID %d → %d, stats %+v", firstID, first.curID, c.ProxyStats())
	}
	retryID, retryServer := first.curID, first.server
	s.At(s.Now(), func() {
		deliver(c, respMsg{ID: retryID})
		if firstDone != 1 || !first.finished {
			t.Fatalf("the retry's answer did not finish the request: done ran %d times", firstDone)
		}
		// The next interaction is handed the record just released.
		c.Frontend().Do(rbe.Request{Client: 43, Kind: rbe.Home, Item: 2}, func(rbe.Response) { secondDone++ })
	})
	s.RunFor(time.Second)
	second := find(43)
	if second != first {
		t.Fatal("the finished record was not reused by the next interaction")
	}
	secondID := second.curID
	untouched := func(after string) {
		t.Helper()
		if r, ok := p.outstanding[secondID]; !ok || r != second || second.curID != secondID ||
			second.attempts != 1 || second.finished || firstDone != 1 || secondDone != 0 {
			t.Fatalf("%s disturbed the request now using the record: %+v (done ran %d and %d times)",
				after, second, firstDone, secondDone)
		}
	}
	s.At(s.Now(), func() {
		idle := len(c.resps.items)
		deliver(c, respMsg{ID: firstID})
		deliver(c, respMsg{ID: retryID})
		untouched("a late response to the previous life")
		// Each delivery takes a record and the proxy gives it back: the list
		// ends as long as it began, or one long if it began empty.
		if got := len(c.resps.items); got != max(idle, 1) {
			t.Fatalf("two ignored responses took the list of idle records from %d to %d", idle, got)
		}
		checkWireLists(t, c, false)
	})
	// The previous life's second timer was stopped at finish; its slot —
	// one request timeout after the redispatch — passes a second before
	// the new request's own timer is due.
	s.RunFor(c.cfg.Cal.ReqTimeout - 1500*time.Millisecond)
	untouched("the stopped timer's slot")
	s.At(s.Now(), func() {
		reset := firstServer
		if reset == second.server {
			reset = retryServer
		}
		p.onServerReset(reset)
		untouched("a reset of a server the previous life used")
		deliver(c, respMsg{ID: secondID})
	})
	s.RunFor(2 * c.cfg.Cal.ReqTimeout)
	if firstDone != 1 || secondDone != 1 {
		t.Fatalf("done ran %d and %d times, want exactly once each", firstDone, secondDone)
	}
	if st := c.ProxyStats(); st.ErrTimeout != 0 || st.ErrReset != 0 || st.Redispatched != 1 {
		t.Fatalf("the previous life's leftovers moved the counters: %+v", st)
	}
	checkWireLists(t, c, false)
}

// respSink is a node that collects what servers answer: copies, the wire
// records being the cluster's to reuse.
type respSink struct{ got map[int64][]respMsg }

func (k *respSink) Start(env.Env) {}
func (k *respSink) Receive(_ env.NodeID, msg env.Message) {
	if m, ok := msg.(*respMsg); ok {
		k.got[m.ID] = append(k.got[m.ID], *m)
	}
}

// TestRecycledServerRecordAcrossStaleFenceWait: a fenced read waits on a
// server, the wait expires and it is answered TooStale, which releases its
// record; the next fenced read takes that record and waits on a higher
// fence. When the replica then passes the first fence, the expired waiter
// must not serve the record's new request early (below its fence); passing
// the second fence serves it, once.
func TestRecycledServerRecordAcrossStaleFenceWait(t *testing.T) {
	c := testCluster(t, 3, func(cfg *Config) { cfg.Cal.FenceWait = time.Minute })
	s := c.Sim()
	sink := &respSink{got: map[int64][]respMsg{}}
	sinkID := s.AddNode(func() env.Node { return sink })
	s.Restart(sinkID)
	srv := c.Server(1)
	write := func(client int64) {
		t.Helper()
		if resp, got := do(c, rbe.Request{Client: client, Kind: rbe.ShoppingCart, Item: 5, Qty: 1}); !got || resp.Err {
			t.Fatalf("write failed: %+v got=%v", resp, got)
		}
	}
	write(1)
	base := srv.replica.LastApplied()
	read := func(id int64, ahead paxos.InstanceID) {
		s.At(s.Now(), func() {
			srv.handleRequest(sinkID, reqMsg{ID: id, Req: rbe.Request{Client: 9, Kind: rbe.Home, Item: 1}, Fence: base + ahead})
		})
	}
	read(1, 1)
	s.RunFor(time.Minute + time.Second)
	if got := sink.got[1]; len(got) != 1 || !got[0].TooStale || len(srv.free.items) != 1 {
		t.Fatalf("the first read's wait did not end stale and release its record: %+v, %d free", got, len(srv.free.items))
	}
	record := srv.free.items[0]
	read(2, 4)
	s.RunFor(time.Second)
	if len(srv.free.items) != 0 || record.m.ID != 2 {
		t.Fatalf("the second read did not take the released record: %d free, record serves ID %d", len(srv.free.items), record.m.ID)
	}
	// Pass the first fence, not the second.
	write(2)
	if la := srv.replica.LastApplied(); la < base+1 || la >= base+4 {
		t.Fatalf("setup: applied index %d after one write, want within [%d, %d)", la, base+1, base+4)
	}
	if len(sink.got[2]) != 0 || c.FenceViolations() != 0 {
		t.Fatalf("the expired waiter served the record's new request below its fence: %+v, %d violations",
			sink.got[2], c.FenceViolations())
	}
	for k := int64(3); srv.replica.LastApplied() < base+4; k++ {
		write(k)
	}
	s.RunFor(time.Second)
	if got := sink.got[2]; len(got) != 1 || got[0].TooStale || got[0].Resp.Err {
		t.Fatalf("the second read was not served exactly once at its fence: %+v", got)
	}
	released := 0
	for _, r := range srv.free.items {
		if r == record {
			released++
		}
	}
	if len(sink.got[1]) != 1 || released != 1 || c.FenceViolations() != 0 {
		t.Fatalf("after both lives: %d answers to the first read, the record %d times on the free list, %d fence violations",
			len(sink.got[1]), released, c.FenceViolations())
	}
}
