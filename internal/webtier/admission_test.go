package webtier

import (
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// TestStaleAdmissionHintFailsOpen: a frozen publisher's last grade must
// not keep gating traffic. The replica's hint is forced to Stop and its
// publishLoop frozen; once the hint's age passes 2×PublishInterval the
// proxy treats it as unknown and admits the write outright — no hold, no
// pace, no shed on an opinion describing a past the proposer may have
// long left.
func TestStaleAdmissionHintFailsOpen(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()

	for i := 0; i < 3; i++ {
		rep := c.Replica(i)
		rep.FreezePublish(true)
		rep.ForceAdmissionHint(paxos.AdmissionStop)
	}

	// Fresh hint (age still under the threshold): Stop holds the write.
	var heldEarly bool
	s.At(s.Now(), func() {
		p := c.proxy
		r := p.newReq(rbe.Request{Client: 5, Kind: rbe.BuyConfirm, Item: 1}, func(rbe.Response) {})
		r.server = 0
		heldEarly = !p.admitAtDispatch(r)
	})
	s.RunFor(50 * time.Millisecond)
	if !heldEarly {
		t.Fatal("a fresh Stop hint did not hold the write at the proxy")
	}

	// Let the hint go stale: the frozen publishLoop never refreshes
	// pubAdmissionAt, so its age grows past the 2×PublishInterval cutoff.
	s.RunFor(time.Second)
	now := s.Now()
	if age := c.Replica(0).AdmissionHintAge(now); age <= 2*core.PublishInterval {
		t.Fatalf("frozen hint age = %v, want > %v", age, 2*core.PublishInterval)
	}

	held := c.proxy.Stats.AdmHeld
	shed := c.proxy.Stats.AdmShed
	paced := c.proxy.Stats.AdmPaced
	var admitted bool
	s.At(s.Now(), func() {
		p := c.proxy
		r := p.newReq(rbe.Request{Client: 6, Kind: rbe.BuyConfirm, Item: 2}, func(rbe.Response) {})
		r.server = 0
		admitted = p.admitAtDispatch(r)
	})
	s.RunFor(50 * time.Millisecond)
	if !admitted {
		t.Fatal("stale Stop hint still gated the write; want fail-open")
	}
	if c.proxy.Stats.AdmHeld != held || c.proxy.Stats.AdmShed != shed || c.proxy.Stats.AdmPaced != paced {
		t.Fatalf("stale hint moved admission counters: held %d→%d shed %d→%d paced %d→%d",
			held, c.proxy.Stats.AdmHeld, shed, c.proxy.Stats.AdmShed, paced, c.proxy.Stats.AdmPaced)
	}

	// Thawing the publisher refreshes the hint; the next tick clears the
	// forced Stop and the age snaps back under the cutoff.
	for i := 0; i < 3; i++ {
		c.Replica(i).FreezePublish(false)
	}
	s.RunFor(500 * time.Millisecond)
	if age := c.Replica(0).AdmissionHintAge(s.Now()); age > 2*core.PublishInterval {
		t.Fatalf("thawed hint still stale: age %v", age)
	}
}

// TestQualityEvictionOnGrayServer: a gray-failed server keeps answering
// probes, so probe-timeout detection never fires — only the
// served-traffic quality EWMA can justify pulling it. The proxy must
// evict it after enough bad samples, quarantine it against probe
// re-admission, and re-admit it after the quarantine ends once it
// serves cleanly again.
func TestQualityEvictionOnGrayServer(t *testing.T) {
	c := testCluster(t, 3, nil)
	s := c.Sim()

	victim := -1
	s.At(s.Now(), func() { victim = (c.LeaderOf(0) + 1) % 3 })
	s.RunFor(time.Millisecond)
	c.GrayFail(victim, 0.9) // errors 90% of requests; probes still ack

	// Drive traffic at the victim until the quality gate trips. Client
	// hash picks the server, so sweep client IDs that land on it.
	for i := 0; i < 60 && c.proxy.health[victim].up; i++ {
		do(c, rbe.Request{Client: int64(i), Kind: rbe.Home, Item: tpcw.ItemID(1 + i%100)})
	}
	if c.proxy.health[victim].up {
		t.Fatal("gray server never evicted on served-traffic quality")
	}
	if c.ProxyStats().QualityEvictions < 1 {
		t.Fatalf("eviction not counted: %+v", c.ProxyStats())
	}

	// Probes keep succeeding against the gray server, but the quarantine
	// holds it out of rotation.
	s.RunFor(5 * time.Second)
	if c.proxy.health[victim].up {
		t.Fatal("succeeding probes re-admitted the quarantined gray server")
	}

	// Healed and out of quarantine: probes re-admit it.
	c.GrayRestore(victim)
	s.RunFor(15 * time.Second)
	if !c.proxy.health[victim].up {
		t.Fatal("healed server not re-admitted after quarantine")
	}
}
