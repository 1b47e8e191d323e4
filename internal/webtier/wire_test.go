package webtier

import (
	"slices"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/netfault"
	"robuststore/internal/rbe"
)

// Requests and responses travel in wire records recycled through the
// cluster's two lists (freelist.go). The tests below hold the ownership rule:
// a record that is never delivered never comes back, a delivered one comes
// back exactly once, and nothing reads a record after releasing it.

// poisonWire makes both lists leave a loud value, not the zero value, in a
// released record: a handler that reads the record instead of its copy then
// sees request −1 or a failed response, and checkWireLists sees any write to a
// record its writer no longer owns.
func poisonWire(c *Cluster) {
	c.reqs.idle = func(*reqMsg) reqMsg { return poisonReq }
	c.resps.idle = func(*respMsg) respMsg { return poisonResp }
}

var (
	poisonReq  = reqMsg{ID: -1, Req: rbe.Request{Client: -1}, Fence: 1 << 60}
	poisonResp = respMsg{ID: -1, Resp: rbe.Response{Err: true}}
)

// checkWireLists fails if a record is on a list twice (a double put: the list
// would outgrow the records ever made) or, under poisonWire, if an idle record
// was written to.
func checkWireLists(t *testing.T, c *Cluster, poisoned bool) {
	t.Helper()
	reqs := map[*reqMsg]bool{}
	for _, m := range c.reqs.items {
		if reqs[m] {
			t.Fatalf("request record %p is on the free list twice", m)
		}
		reqs[m] = true
		if poisoned && (m.ID != poisonReq.ID || m.Req.Client != poisonReq.Req.Client) {
			t.Fatalf("an idle request record was written to: %+v", *m)
		}
	}
	resps := map[*respMsg]bool{}
	for _, m := range c.resps.items {
		if resps[m] {
			t.Fatalf("response record %p is on the free list twice", m)
		}
		resps[m] = true
		if poisoned && *m != poisonResp {
			t.Fatalf("an idle response record was written to: %+v", *m)
		}
	}
}

func idleReq(c *Cluster, m *reqMsg) bool { return slices.Contains(c.reqs.items, m) }

// deliver hands the proxy a response the way the simulator does: in a wire
// record taken from the cluster's list, which the proxy releases.
func deliver(c *Cluster, m respMsg) {
	w := c.resps.get()
	*w = m
	c.proxy.Receive(0, w)
}

// TestUndeliveredRequestRecordIsGarbage: a request sent into a blocked link,
// and one in flight to a server that crashes before it lands, are dropped by
// the simulator; their records never re-enter the list, and the dispatches
// after them — which take other records — are answered normally.
func TestUndeliveredRequestRecordIsGarbage(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()
	read := func(client int64) {
		t.Helper()
		if resp, got := do(c, rbe.Request{Client: client, Kind: rbe.Home, Item: 1}); !got || resp.Err {
			t.Fatalf("read by client %d failed: %+v got=%v", client, resp, got)
		}
	}
	read(1)
	if len(c.reqs.items) != 1 || len(c.resps.items) != 1 {
		t.Fatalf("one answered read left %d request and %d response records idle, want 1 and 1",
			len(c.reqs.items), len(c.resps.items))
	}

	// Blocked link: requests vanish on their way in.
	lost := c.reqs.items[0]
	heal := c.FaultLinks([]int{0, 1, 2}, false, netfault.Fault{Dir: env.LinkInboundOnly, Sever: true})
	done := 0
	s.At(s.Now(), func() { lateHarness(t, c, rbe.Home, func(rbe.Response) { done++ }) })
	s.RunFor(time.Second)
	if len(c.reqs.items) != 0 || done != 0 {
		t.Fatalf("the dropped request's record came back (%d idle) or it was answered (%d)", len(c.reqs.items), done)
	}
	heal()
	read(2)
	s.RunFor(2 * c.cfg.Cal.ReqTimeout) // the dropped read expires, is redispatched and answered
	if idleReq(c, lost) || done != 1 {
		t.Fatalf("after the heal: dropped record back on the list %v, its client answered %d times", idleReq(c, lost), done)
	}
	checkWireLists(t, c, false)

	// Crashed receiver: the server dies with the request in flight to it.
	lost = c.reqs.items[len(c.reqs.items)-1] // the record the next dispatch takes
	done = 0
	var failed bool
	s.At(s.Now(), func() {
		r, _ := lateHarness(t, c, rbe.Home, func(resp rbe.Response) { done++; failed = resp.Err })
		c.Crash(r.server)
	})
	s.RunFor(time.Second) // the reset redispatches the read to a live server
	if done != 1 || failed || idleReq(c, lost) {
		t.Fatalf("read in flight to a crashing server: answered %d times (err=%v), its first record back on the list %v",
			done, failed, idleReq(c, lost))
	}
	read(3)
	checkWireLists(t, c, false)
}

// wireSink is a node that talks to servers as the proxy does — requests out
// in wire records, responses copied out of theirs and released — and keeps
// what it was answered.
type wireSink struct {
	c   *Cluster
	e   env.Env
	got map[int64][]respMsg
}

func (k *wireSink) Start(e env.Env) { k.e = e }
func (k *wireSink) Receive(_ env.NodeID, msg env.Message) {
	if m, ok := msg.(*respMsg); ok {
		v := *m
		k.c.resps.put(m)
		k.got[v.ID] = append(k.got[v.ID], v)
	}
}

// TestNoHandlerReadsAReleasedWireRecord: with released records poisoned, every
// request is still answered under its own ID — the proxy's crash → reset →
// redispatch → late-response path end to end, and each of handleRequest's four
// rejections, which answer before any request record exists. What makes that
// hold is the by-value copy a receiver takes before it releases the record.
func TestNoHandlerReadsAReleasedWireRecord(t *testing.T) {
	c := testCluster(t, 3, func(cfg *Config) { cfg.Shards, cfg.Readers = 2, 1 })
	poisonWire(c)
	s := c.Sim()

	// The proxy's path.
	done, failed := 0, 0
	var firstID int64
	s.At(s.Now(), func() {
		r, id := lateHarness(t, c, rbe.Home, func(resp rbe.Response) {
			done++
			if resp.Err {
				failed++
			}
		})
		firstID = id
		c.Crash(r.server)
	})
	s.RunFor(time.Second)
	if done != 1 || failed != 0 {
		t.Fatalf("crash → reset → redispatch: the read was answered %d times, %d with an error", done, failed)
	}
	s.At(s.Now(), func() { deliver(c, respMsg{ID: firstID}) }) // the dead attempt's answer
	s.RunFor(5 * time.Second)                                  // and the watchdog's restart
	if done != 1 {
		t.Fatalf("a late response to the reset attempt finished the request again (%d)", done)
	}
	checkWireLists(t, c, true)

	// The servers' rejections, asked for directly.
	sink := &wireSink{c: c, got: map[int64][]respMsg{}}
	sinkID := s.AddNode(func() env.Node { return sink })
	s.Restart(sinkID)
	s.RunFor(time.Millisecond)
	var mine, other int64 // a client of group 0, and one of group 1
	for id := int64(1); mine == 0 || other == 0; id++ {
		if c.GroupOf(id) == 0 {
			mine = id
		} else {
			other = id
		}
	}
	nextID := int64(100)
	ask := func(server int, req rbe.Request) respMsg {
		t.Helper()
		nextID++
		id := nextID
		s.At(s.Now(), func() {
			w := c.reqs.get()
			*w = reqMsg{ID: id, Req: req}
			sink.e.Send(c.servers[server].id, w)
		})
		s.RunFor(100 * time.Millisecond)
		if got := sink.got[id]; len(got) != 1 {
			t.Fatalf("request %d to server %d was answered %d times: %+v (and under other IDs: %+v)",
				id, server, len(got), got, sink.got[poisonReq.ID])
		}
		return sink.got[id][0]
	}
	voter, reader := c.Voters(0)[0], c.Readers(0)[0]
	home := rbe.Request{Client: mine, Kind: rbe.Home, Item: 1}
	if m := ask(voter, home); m.Resp.Err {
		t.Fatalf("setup: a healthy server refused a read: %+v", m)
	}
	if m := ask(voter, rbe.Request{Client: other, Kind: rbe.Home, Item: 1}); !m.WrongEpoch {
		t.Fatalf("another group's session: %+v, want WrongEpoch", m)
	}
	if m := ask(reader, rbe.Request{Client: mine, Kind: rbe.ShoppingCart, Item: 5, Qty: 1}); !m.Resp.Err || m.WrongEpoch {
		t.Fatalf("a write at a learner-backed reader: %+v, want a plain error", m)
	}
	restore := c.GrayFail(voter, 0.999999)
	if m := ask(voter, home); !m.Resp.Err || m.WrongEpoch {
		t.Fatalf("a gray-failed server: %+v, want a plain error", m)
	}
	restore()
	c.SetAutoRestart(voter, false)
	c.Crash(voter)
	s.RunFor(10 * time.Millisecond)
	c.ManualRecover(voter)
	if m := ask(voter, home); !m.Resp.Err || m.WrongEpoch {
		t.Fatalf("a server that has only just restarted: %+v, want a plain error", m)
	}
	checkWireLists(t, c, true)
}
