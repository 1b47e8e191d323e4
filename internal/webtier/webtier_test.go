package webtier

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/metrics"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

func testCluster(t *testing.T, servers int, tweak func(*Config)) *Cluster {
	t.Helper()
	proto := tpcw.Populate(tpcw.PopConfig{Items: 400, EBs: 1, Reduction: 8, Seed: 3})
	cfg := Config{
		Servers:            servers,
		FastPaxos:          true,
		Store:              proto.Clone,
		Cal:                DefaultCalibration(),
		CheckpointInterval: 30 * time.Second,
		RetainInstances:    1 << 20,
		Seed:               11,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c := NewCluster(cfg)
	c.Start()
	// Boot: leader election + initial readiness.
	c.Sim().RunFor(3 * time.Second)
	return c
}

// do issues one interaction and returns the response.
func do(c *Cluster, req rbe.Request) (rbe.Response, bool) {
	var resp rbe.Response
	got := false
	c.Sim().At(c.Sim().Now(), func() {
		c.Frontend().Do(req, func(r rbe.Response) {
			resp = r
			got = true
		})
	})
	c.Sim().RunFor(5 * time.Second)
	return resp, got
}

func TestReadAndWriteInteractions(t *testing.T) {
	c := testCluster(t, 3, nil)
	resp, got := do(c, rbe.Request{Client: 1, Kind: rbe.ProductDetail, Item: 5})
	if !got || resp.Err {
		t.Fatalf("read failed: %+v got=%v", resp, got)
	}
	resp, got = do(c, rbe.Request{Client: 1, Kind: rbe.ShoppingCart, Item: 5, Qty: 2})
	if !got || resp.Err || resp.Cart == 0 {
		t.Fatalf("cart write failed: %+v", resp)
	}
	cart := resp.Cart
	resp, got = do(c, rbe.Request{Client: 1, Kind: rbe.BuyConfirm, Cart: cart, Customer: 1, Item: 5})
	if !got || resp.Err || resp.Order == 0 {
		t.Fatalf("purchase failed: %+v", resp)
	}
	// The order is visible on every replica.
	for i := 0; i < 3; i++ {
		if _, ok := c.Store(i).GetOrder(resp.Order); !ok {
			t.Errorf("order missing on replica %d", i)
		}
	}
}

func TestCustomerRegistrationAndSession(t *testing.T) {
	c := testCluster(t, 3, nil)
	resp, _ := do(c, rbe.Request{Client: 2, Kind: rbe.CustomerRegistration})
	if resp.Err || resp.Customer == 0 || resp.UName == "" {
		t.Fatalf("registration failed: %+v", resp)
	}
	resp2, _ := do(c, rbe.Request{Client: 2, Kind: rbe.BuyRequest, Customer: resp.Customer, Item: 3})
	if resp2.Err || resp2.Cart == 0 {
		t.Fatalf("buy request failed: %+v", resp2)
	}
}

func TestFailoverRoutesAroundCrash(t *testing.T) {
	c := testCluster(t, 3, nil)
	c.Crash(1)
	ok := 0
	for i := 0; i < 12; i++ {
		resp, got := do(c, rbe.Request{Client: int64(i), Kind: rbe.Home, Item: 1})
		if got && !resp.Err {
			ok++
		}
	}
	if ok != 12 {
		t.Fatalf("only %d/12 requests succeeded with one server down", ok)
	}
	if c.Faults() != 1 {
		t.Errorf("faults = %d", c.Faults())
	}
}

func TestWatchdogAutoRestart(t *testing.T) {
	c := testCluster(t, 3, nil)
	c.Crash(2)
	if c.Server(2) != nil {
		t.Fatal("server 2 should be down")
	}
	// The watchdog restarts it within its poll interval; recovery then
	// completes.
	c.Sim().RunFor(30 * time.Second)
	if c.Server(2) == nil {
		t.Fatal("watchdog did not restart server 2")
	}
	r := c.Replica(2)
	if r == nil || !r.Ready() || !r.Recovered() {
		t.Fatal("server 2 did not recover")
	}
	if c.Interventions() != 0 {
		t.Errorf("interventions = %d, want 0 (autonomous)", c.Interventions())
	}
}

func TestManualRecoveryCountsIntervention(t *testing.T) {
	c := testCluster(t, 3, nil)
	c.SetAutoRestart(2, false)
	c.Crash(2)
	c.Sim().RunFor(10 * time.Second)
	if c.Server(2) != nil {
		t.Fatal("watchdog restarted despite being disabled")
	}
	c.ManualRecover(2)
	c.Sim().RunFor(20 * time.Second)
	if c.Server(2) == nil {
		t.Fatal("manual recovery failed")
	}
	if c.Interventions() != 1 || c.Faults() != 1 {
		t.Errorf("interventions=%d faults=%d", c.Interventions(), c.Faults())
	}
}

func TestInFlightWritesErrorOnCrash(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	// Find which server client 99's writes go to, then crash it with
	// the request in flight.
	var target = -1
	s.At(s.Now(), func() {
		c.proxy.Do(rbe.Request{Client: 99, Kind: rbe.ShoppingCart, Item: 1}, func(rbe.Response) {})
	})
	s.RunFor(50 * time.Millisecond)
	for _, r := range c.proxy.outstanding {
		target = r.server
	}
	s.RunFor(5 * time.Second)
	if target < 0 {
		t.Skip("request completed before observation")
	}
	var resp rbe.Response
	got := false
	s.At(s.Now(), func() {
		c.proxy.Do(rbe.Request{Client: 99, Kind: rbe.ShoppingCart, Item: 2}, func(r rbe.Response) {
			resp = r
			got = true
		})
		s.After(2*time.Millisecond, func() { c.Crash(target) })
	})
	s.RunFor(5 * time.Second)
	if !got {
		t.Fatal("no response at all")
	}
	if !resp.Err {
		t.Fatal("in-flight write on crashed server must surface as a client error")
	}
	if st := c.ProxyStats(); st.ErrReset == 0 {
		t.Errorf("expected a reset error, stats=%+v", st)
	}
}

func TestInFlightReadsRedispatchOnCrash(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	var target = -1
	var resp rbe.Response
	got := false
	s.At(s.Now(), func() {
		c.proxy.Do(rbe.Request{Client: 7, Kind: rbe.BestSellers, Subject: "ARTS"}, func(r rbe.Response) {
			resp = r
			got = true
		})
	})
	s.RunFor(time.Millisecond)
	for _, r := range c.proxy.outstanding {
		target = r.server
	}
	if target < 0 {
		t.Skip("read completed instantly")
	}
	s.At(s.Now(), func() { c.Crash(target) })
	s.RunFor(5 * time.Second)
	if !got || resp.Err {
		t.Fatalf("read was not redispatched transparently: got=%v resp=%+v", got, resp)
	}
	if st := c.ProxyStats(); st.Redispatched == 0 {
		t.Errorf("expected a redispatch, stats=%+v", st)
	}
}

func TestProbeEvictsAndReadmits(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	c.SetAutoRestart(1, false)
	c.Crash(1)
	// After ProbeFailures intervals the proxy marks it down.
	s.RunFor(6 * time.Second)
	if c.proxy.health[1].up {
		t.Fatal("proxy did not evict the dead server")
	}
	c.ManualRecover(1)
	s.RunFor(30 * time.Second)
	if !c.proxy.health[1].up {
		t.Fatal("proxy did not re-admit the recovered server")
	}
}

func TestNoServiceBelowMajority(t *testing.T) {
	c := testCluster(t, 3, nil)
	c.SetAutoRestart(0, false)
	c.SetAutoRestart(1, false)
	c.Crash(0)
	c.Crash(1)
	c.Sim().RunFor(10 * time.Second)
	// One of three replicas alive: reads still work locally, but the
	// replicated writes block (below majority).
	resp, got := do(c, rbe.Request{Client: 1, Kind: rbe.Home, Item: 1})
	if !got || resp.Err {
		t.Fatalf("local read should still work: %+v", resp)
	}
	start := c.Sim().Now()
	var wr rbe.Response
	wrGot := false
	c.Sim().At(start, func() {
		c.Frontend().Do(rbe.Request{Client: 1, Kind: rbe.ShoppingCart, Item: 1},
			func(r rbe.Response) { wr = r; wrGot = true })
	})
	c.Sim().RunFor(15 * time.Second)
	if !wrGot || !wr.Err {
		t.Fatalf("write should time out below majority: got=%v resp=%+v", wrGot, wr)
	}
}

func TestEndToEndWorkloadAccuracy(t *testing.T) {
	c := testCluster(t, 5, nil)
	s := c.Sim()
	t0 := s.Now()
	rec := metrics.NewShardedRecorder(t0, time.Second, 1, nil)
	proto := tpcw.Populate(tpcw.PopConfig{Items: 400, EBs: 1, Reduction: 8, Seed: 3})
	pop := rbe.New(rbe.Config{
		Browsers: 100, Profile: rbe.Shopping, ThinkTime: time.Second,
		Population: proto.Info(), Seed: 5, Recorder: rec,
		Stop: t0.Add(60 * time.Second),
	}, schedAdapter{s: s}, c.Frontend())
	pop.Start()
	s.RunFor(70 * time.Second)
	if rec.Aggregate().Total() < 3000 {
		t.Fatalf("only %d interactions completed", rec.Aggregate().Total())
	}
	if acc := rec.Aggregate().Accuracy(); acc < 99.99 {
		t.Fatalf("failure-free accuracy = %v", acc)
	}
	// Replicated state converged across servers.
	var ref int
	for i := 0; i < 5; i++ {
		_, _, orders, _ := c.Store(i).Counts()
		if i == 0 {
			ref = orders
			continue
		}
		if diff := orders - ref; diff < -2 || diff > 2 {
			t.Errorf("replica %d orders=%d vs %d", i, orders, ref)
		}
	}
}

type schedAdapter struct {
	s interface {
		Now() time.Time
		After(time.Duration, func())
	}
}

func (a schedAdapter) Now() time.Time                   { return a.s.Now() }
func (a schedAdapter) After(d time.Duration, fn func()) { a.s.After(d, fn) }

func TestCalibrationHelpers(t *testing.T) {
	cal := DefaultCalibration()
	if cal.readService(rbe.Home) <= 0 || cal.readService(rbe.Interaction(99)) <= 0 {
		t.Error("read service must be positive")
	}
	if cal.applyCPU(tpcw.BuyConfirmAction{}) <= cal.applyCPU(tpcw.RefreshSessionAction{}) {
		t.Error("buy must cost more than session refresh")
	}
	if cal.applyCPU("unknown") <= 0 {
		t.Error("unknown action cost must be positive")
	}
	if cal.gcPause(700e6) <= cal.gcPause(300e6) {
		t.Error("GC pause must grow with live set")
	}
	if cal.actionPromoted(tpcw.BuyConfirmAction{}) <= cal.actionPromoted(tpcw.RefreshSessionAction{}) {
		t.Error("buy must promote more than session refresh")
	}
	if cal.checkpointPause(1<<40) != cal.CheckpointPauseMax {
		t.Error("checkpoint pause must cap")
	}
}

func TestHashBalancesClients(t *testing.T) {
	counts := make(map[uint64]int)
	for c := uint64(0); c < 3000; c++ {
		counts[hash64(c)%5]++
	}
	for b, n := range counts {
		if n < 400 || n > 800 {
			t.Errorf("bucket %d has %d of 3000", b, n)
		}
	}
}

var _ env.Node = (*Server)(nil)
var _ env.Node = (*Proxy)(nil)
