package webtier

import (
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/rbe"
)

// TestOneWayLossEvictsAndServiceContinues: a server under outbound-only
// loss hears everything but its answers vanish — no connection reset ever
// arrives. Its probe responses time out, the proxy evicts it after the
// threshold, service continues on the survivors, and after the heal a
// succeeding probe re-admits it.
func TestOneWayLossEvictsAndServiceContinues(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	heal := c.FaultLinks([]int{1}, false, netfault.Fault{Dir: env.LinkOutboundOnly, Sever: true})
	s.RunFor(8 * time.Second) // enough probe timeouts to cross the threshold
	if c.proxy.health[1].up {
		t.Fatal("silent server still in rotation after the eviction threshold")
	}
	if resp, got := do(c, rbe.Request{Client: 7, Kind: rbe.Home, Item: 1}); !got || resp.Err {
		t.Fatalf("read against the surviving servers failed: %+v got=%v", resp, got)
	}
	heal()
	s.RunFor(3 * time.Second)
	if !c.proxy.health[1].up {
		t.Fatal("healed server was not re-admitted by a succeeding probe")
	}
	if c.Faults() != 1 {
		t.Fatalf("one-way loss must count as one injected fault, got %d", c.Faults())
	}
}

// TestRetryAvoidsFailingServer: a server-side error on a read triggers
// one transparent retry, and that retry must not re-land on the server
// that just failed — the client hash is deterministic, so an unchanged
// candidate set would re-pick it every time (e.g. a server that answers
// errors while warming up would fail the same request twice).
func TestRetryAvoidsFailingServer(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	var first, second int
	var resp rbe.Response
	got := false
	s.At(s.Now(), func() {
		p := c.proxy
		r := p.newReq(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1},
			func(rr rbe.Response) { resp = rr; got = true })
		p.dispatch(r)
		first = r.server
		var id int64
		for k, v := range p.outstanding {
			if v == r {
				id = k
			}
		}
		// Simulate the server failing the request server-side.
		p.onResponse(respMsg{ID: id, Resp: rbe.Response{Err: true}})
		second = r.server
	})
	s.RunFor(5 * time.Second)
	if st := c.ProxyStats(); st.Redispatched != 1 {
		t.Fatalf("expected one redispatch, stats=%+v", st)
	}
	if second == first {
		t.Fatalf("transparent retry re-landed on server %d, which just failed it", first)
	}
	if !got || resp.Err {
		t.Fatalf("retried read did not complete cleanly: got=%v resp=%+v", got, resp)
	}
	if st := c.ProxyStats(); st.ErrServerSide != 0 {
		t.Errorf("retry succeeded, yet a server-side error was counted: %+v", st)
	}
}

// TestRetryFallsBackToSameServerWhenAlone: with a single candidate the
// retry may only go back to it — excluding it would turn a retryable
// blip into a spurious no-server error.
func TestRetryFallsBackToSameServerWhenAlone(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	c.SetAutoRestart(1, false)
	c.SetAutoRestart(2, false)
	c.Crash(1)
	c.Crash(2)
	s.RunFor(10 * time.Second) // probes evict the dead servers
	var first, second int
	s.At(s.Now(), func() {
		p := c.proxy
		r := p.newReq(rbe.Request{Client: 42, Kind: rbe.Home, Item: 1}, func(rbe.Response) {})
		p.dispatch(r)
		first = r.server
		var id int64
		for k, v := range p.outstanding {
			if v == r {
				id = k
			}
		}
		p.onResponse(respMsg{ID: id, Resp: rbe.Response{Err: true}})
		second = r.server
	})
	s.RunFor(2 * time.Second)
	if st := c.ProxyStats(); st.ErrNoServer != 0 {
		t.Fatalf("lone-survivor retry produced a no-server error: %+v", st)
	}
	if second != first {
		t.Fatalf("retry went to %d with only %d in rotation", second, first)
	}
}

// muteToProxy severs the one link from server i to the proxy.
func muteToProxy(c *Cluster, i int) *netfault.Handle {
	return c.Sim().Links().Open(netfault.Fault{Nodes: []env.NodeID{c.servers[i].id}, Peers: []env.NodeID{c.proxyID},
		Dir: env.LinkOutboundOnly, Sever: true})
}

// TestProbeTimeoutEvictsAfterFourFailures exercises the probe timeout
// path of the health-check state machine: the server process is alive and
// accepting, but its probe responses are lost, which must count failures
// and evict after the configured threshold — then one successful probe
// re-admits and resets the counter.
func TestProbeTimeoutEvictsAfterFourFailures(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	mute := muteToProxy(c, 1) // responses vanish: probe timeouts
	s.RunFor(2600 * time.Millisecond)
	if !c.proxy.health[1].up {
		t.Fatal("evicted before reaching the failure threshold")
	}
	if c.proxy.health[1].failCount == 0 {
		t.Fatal("probe timeouts did not count as failures")
	}
	s.RunFor(3 * time.Second)
	if c.proxy.health[1].up {
		t.Fatal("4 timed-out probes must evict the server")
	}
	mute.Heal()
	s.RunFor(2 * time.Second)
	if !c.proxy.health[1].up {
		t.Fatal("successful probe must re-admit the server")
	}
	if c.proxy.health[1].failCount != 0 {
		t.Errorf("failCount = %d after a successful probe, want 0", c.proxy.health[1].failCount)
	}
}

// TestProbeFailureCountResetsOnSuccess: failures below the threshold are
// forgiven by one successful probe — the count does not accumulate across
// healthy periods.
func TestProbeFailureCountResetsOnSuccess(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	mute := muteToProxy(c, 2)
	s.RunFor(2600 * time.Millisecond) // two timed-out probes
	if c.proxy.health[2].failCount < 2 || !c.proxy.health[2].up {
		t.Fatalf("setup: failCount=%d up=%v", c.proxy.health[2].failCount, c.proxy.health[2].up)
	}
	mute.Heal()
	s.RunFor(2 * time.Second) // a success resets the count
	if c.proxy.health[2].failCount != 0 {
		t.Fatalf("failCount = %d after success, want 0", c.proxy.health[2].failCount)
	}
	muteToProxy(c, 2)
	s.RunFor(3600 * time.Millisecond) // three more failures: still short of 4
	if !c.proxy.health[2].up {
		t.Fatal("evicted after 3 post-reset failures; threshold is 4 consecutive")
	}
	s.RunFor(2 * time.Second) // the 4th consecutive failure evicts
	if c.proxy.health[2].up {
		t.Fatal("4 consecutive failures after a reset must evict")
	}
}

// TestIdleGroupDowntimeStopsAfterRecovery: once a fully-down group is
// back, its outage clock must stop even if no client of its slice issues
// a request — a succeeding health probe is proof of service.
func TestIdleGroupDowntimeStopsAfterRecovery(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	for i := 0; i < 3; i++ {
		c.SetAutoRestart(i, false)
		c.Crash(i)
	}
	// One failed dispatch starts the outage clock.
	resp, got := do(c, rbe.Request{Client: 1, Kind: rbe.Home, Item: 1})
	if !got || !resp.Err {
		t.Fatalf("request against a dead group must error: got=%v resp=%+v", got, resp)
	}
	for i := 0; i < 3; i++ {
		c.ManualRecover(i)
	}
	s.RunFor(30 * time.Second) // recovery completes, probes re-admit
	d1 := c.Downtime()
	if d1 == 0 {
		t.Fatal("outage was never accounted")
	}
	s.RunFor(60 * time.Second) // idle: no requests for this group
	if d2 := c.Downtime(); d2 != d1 {
		t.Fatalf("idle group's downtime kept accruing after recovery: %v -> %v", d1, d2)
	}
}

// TestCheckpointAllSurvivesMidCheckpointCrash: a server killed while its
// checkpoint is on the disk loses the completion callback with the rest
// of its volatile state; CheckpointAll must still complete.
func TestCheckpointAllSurvivesMidCheckpointCrash(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	done := false
	s.At(s.Now(), func() {
		c.CheckpointAll(func() { done = true })
	})
	s.At(s.Now().Add(2*time.Millisecond), func() { c.Crash(1) })
	s.RunFor(30 * time.Second)
	if !done {
		t.Fatal("CheckpointAll hung after a mid-checkpoint crash")
	}
}
