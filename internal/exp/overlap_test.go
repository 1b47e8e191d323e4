package exp

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/env"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
	"robuststore/internal/webtier"
)

// overlapRig is an idle three-server deployment, booted and led, whose
// ledger fires a faultload's events at their AtSec from now.
type overlapRig struct {
	cfg RunConfig
	c   *webtier.Cluster
	led *ledger
}

func newOverlapRig() *overlapRig {
	proto := tpcw.Populate(tpcw.PopConfig{Items: 400, EBs: 1, Reduction: 8, Seed: 3})
	c := webtier.NewCluster(webtier.Config{
		Servers:            3,
		FastPaxos:          true,
		Store:              proto.Clone,
		Cal:                webtier.DefaultCalibration(),
		CheckpointInterval: 30 * time.Second,
		RetainInstances:    1 << 20,
		Seed:               11,
	})
	c.Start()
	c.Sim().RunFor(3 * time.Second)
	led := newLedger()
	led.cluster, led.t0 = c, c.Sim().Now()
	return &overlapRig{cfg: RunConfig{Profile: rbe.Shopping, Servers: 3, Shards: 1, Seed: 1}, c: c, led: led}
}

// schedule arms the events, their AtSec counted from now.
func (r *overlapRig) schedule(events ...FaultEvent) {
	now := r.c.Sim().Now()
	for _, ev := range (Faultload{Name: "overlap", Events: events}).resolve(r.cfg) {
		r.led.schedule(ev, now.Add(time.Duration(ev.atSec*float64(time.Second))))
	}
}

// links is every faulty directed link of the cluster, worded.
func (r *overlapRig) links() string {
	var out string
	nodes := env.NodeID(r.c.TotalServers() + 1) // the proxy and the servers
	for a := range nodes {
		for b := range nodes {
			if l := r.c.Sim().Links().Link(a, b); l.Blocked() || l.Loss != 0 || l.Delay != 0 {
				out += fmt.Sprintf("%d>%d %+v; ", a, b, l)
			}
		}
	}
	return out
}

// bounced reads six reads one after another — the proxy rotates reads
// over the three voters, so each serves two — and counts the reads a
// server failed and the proxy sent elsewhere.
func (r *overlapRig) bounced() int {
	s := r.c.Sim()
	before := r.c.ProxyStats().Redispatched
	for i := range 6 {
		s.At(s.Now(), func() {
			r.c.Frontend().Do(rbe.Request{Client: int64(i), Kind: rbe.Home, Item: 1}, func(rbe.Response) {})
		})
		s.RunFor(100 * time.Millisecond)
	}
	return r.c.ProxyStats().Redispatched - before
}

// TestOverlappingWindowsHealOnlyTheirOwn: two windows of one kind overlap on
// a shared link or server, and the first one closes. The second must still
// be in force wherever it reaches: each inject's heal lifts its own fault and
// leaves the other's. A heal that cleared every link of its victim would
// lift the second window's loss on the link the two victims share, and one
// that healed the server outright would lift the second gray failure.
func TestOverlappingWindowsHealOnlyTheirOwn(t *testing.T) {
	t.Run("link-loss", func(t *testing.T) {
		r := newOverlapRig()
		s := r.c.Sim()
		r.schedule(
			FaultEvent{AtSec: 1, Op: OpLinkLoss, Select: Member(0, 0), Factor: 0.3},
			FaultEvent{AtSec: 2, Op: OpLinkLoss, Select: Member(0, 1), Factor: 0.3},
			FaultEvent{AtSec: 3, Op: OpLinkRestore, Select: Member(0, 0)},
			FaultEvent{AtSec: 4, Op: OpLinkRestore, Select: Member(0, 1)},
			FaultEvent{AtSec: 5, Op: OpLinkLoss, Select: Member(0, 1), Factor: 0.3},
		)
		s.RunFor(3500 * time.Millisecond)
		afterFirst := r.links()
		s.RunFor(time.Second)
		if healed := r.links(); healed != "" {
			t.Fatalf("both windows closed, but links are still faulty: %s", healed)
		}
		s.RunFor(time.Second)
		alone := r.links()
		if alone == "" {
			t.Fatal("the Member(0, 1) window put no loss on any link")
		}
		if afterFirst != alone {
			t.Fatalf("after the Member(0, 0) window closed, the links read\n  %s\nbut the Member(0, 1) window alone reads\n  %s", afterFirst, alone)
		}
	})

	t.Run("gray-fail", func(t *testing.T) {
		r := newOverlapRig()
		lead := r.c.LeaderOf(0)
		slot := -1
		for k := range 2 {
			if (Faultload{Events: []FaultEvent{{Op: OpGrayFail, Select: Member(0, k)}}}).resolve(r.cfg)[0].victims[0] == lead {
				slot = k
			}
		}
		if slot < 0 {
			t.Fatalf("leader %d is in neither rotation slot of group 0", lead)
		}
		const rate = 0.999999 // nearly every request fails
		r.schedule(
			FaultEvent{AtSec: 1, Op: OpGrayFail, Select: Leader(0), Factor: rate},
			FaultEvent{AtSec: 2, Op: OpGrayFail, Select: Member(0, slot), Factor: rate},
			FaultEvent{AtSec: 3, Op: OpGrayRestore, Select: Leader(0)},
			FaultEvent{AtSec: 4, Op: OpGrayRestore, Select: Member(0, slot)},
		)
		r.c.Sim().RunFor(3500 * time.Millisecond)
		if got := r.c.LeaderOf(0); got != lead {
			t.Fatalf("the leader moved from %d to %d; the two windows did not share a server", lead, got)
		}
		if n := r.bounced(); n != 2 {
			t.Fatalf("after the Leader(0) window closed, %d of the gray leader's two reads failed, want both", n)
		}
		r.c.Sim().RunFor(time.Second)
		if n := r.bounced(); n != 0 {
			t.Fatalf("both windows closed, but %d reads failed", n)
		}
	})
}
