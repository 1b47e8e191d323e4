package webtier

import (
	"testing"
	"time"

	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// TestWriteAdmissionGatedAtServer: write admission is decided once, by the
// server whose replica owns the proposer queue. A window of one command
// (MaxInFlight 1 × MaxBatchCmds 1) grades Stop at 32 queued. A first wave of
// writes, all hashed to one server, fills its queue; a second wave arrives
// under Stop. The proxy dispatches every write — none is held before the
// network hop — and the server holds the second wave and sheds each write as
// a fast client error admitHoldDeadline after its gate, far under
// ReqTimeout. Once the queue drains to Slowdown, one more write is paced
// exactly once and then served.
func TestWriteAdmissionGatedAtServer(t *testing.T) {
	c := testCluster(t, 3, func(cfg *Config) { cfg.Paxos = paxos.Config{MaxInFlight: 1, MaxBatchCmds: 1} })
	s := c.Sim()
	const target = 0
	next := int64(1000)
	client := func() int64 { // the next client the proxy hashes to target
		for ; hash64(uint64(next))%3 != target; next++ {
		}
		next++
		return next - 1
	}
	pending := 0
	write := func(done func(rbe.Response, time.Duration)) {
		pending++
		sent := s.Now()
		req := rbe.Request{Client: client(), Kind: rbe.ShoppingCart, Item: tpcw.ItemID(1 + next%100), Qty: 1}
		c.Frontend().Do(req, func(r rbe.Response) {
			pending--
			done(r, s.Now().Sub(sent))
		})
	}
	gate := func() paxos.AdmissionState { return c.Replica(target).AdmissionState() }

	s.At(s.Now(), func() {
		for i := 0; i < 400; i++ {
			write(func(rbe.Response, time.Duration) {})
		}
	})
	s.RunFor(200 * time.Millisecond)
	if gate() != paxos.AdmissionStop {
		t.Fatalf("first wave left the gate at %v, want stop", gate())
	}

	// Few enough that their errors leave the server in rotation: four bad
	// samples lift the proxy's quality EWMA to 0.41, under qualityEvictScore.
	const held = 4
	var shed int
	s.At(s.Now(), func() {
		for i := 0; i < held; i++ {
			write(func(r rbe.Response, took time.Duration) {
				if !r.Err {
					t.Errorf("a write that arrived under Stop was served (after %v)", took)
					return
				}
				if took < admitHoldDeadline || took > admitHoldDeadline+100*time.Millisecond {
					t.Errorf("held write failed after %v, want just over %v", took, admitHoldDeadline)
				}
				shed++
			})
		}
	})
	s.RunFor(200 * time.Millisecond)
	st := c.ProxyStats()
	if gate() != paxos.AdmissionStop || st.AdmHeld < held {
		t.Fatalf("second wave not held at the server: gate %v, %+v", gate(), st)
	}
	if n := len(c.proxy.outstanding); n != pending {
		t.Fatalf("%d writes unanswered but %d outstanding: the proxy held writes before dispatch", pending, n)
	}
	s.RunFor(400 * time.Millisecond)
	if st := c.ProxyStats(); shed != held || st.AdmShed != held {
		t.Fatalf("%d of %d held writes shed (AdmShed %d), want all", shed, held, st.AdmShed)
	}

	for gate() != paxos.AdmissionSlowdown {
		if s.RunFor(time.Millisecond); pending == 0 {
			t.Fatal("the queue drained without passing through slowdown")
		}
	}
	paced := c.ProxyStats().AdmPaced
	var served bool
	s.At(s.Now(), func() {
		write(func(r rbe.Response, _ time.Duration) { served = !r.Err })
	})
	s.RunFor(5 * time.Second)
	if !served {
		t.Fatal("the write paced under slowdown was not served")
	}
	st = c.ProxyStats()
	if st.AdmPaced != paced+1 {
		t.Fatalf("AdmPaced %d → %d, want one pacing step for one write", paced, st.AdmPaced)
	}
	if st.ErrTimeout != 0 {
		t.Fatalf("%d writes timed out; the gate sheds fast", st.ErrTimeout)
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
	restore := c.GrayFail(victim, 0.9) // errors 90% of requests; probes still ack

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
	restore()
	s.RunFor(15 * time.Second)
	if !c.proxy.health[victim].up {
		t.Fatal("healed server not re-admitted after quarantine")
	}
}
