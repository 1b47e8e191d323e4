package sim_test

import (
	"fmt"
	"testing"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/xrand"
)

// TestPaxosSafetyFast runs crash schedules with Fast Paxos on. The other
// schedules submit at one replica with Fast Paxos off, so no fast round
// collides and no coordinated recovery runs there. Here five replicas (a fast
// quorum is four, so one crash leaves the fast path open) take the actions in
// turn: proposers race for instances, rounds collide, and the coordinator
// recovers them, from its fast votes or through phase 1. Agreement and
// idempotent replay must hold as in the other schedules, and some recoveries
// must have skipped phase 1.
func TestPaxosSafetyFast(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	var st paxos.Stats
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st.Add(runFastCrashSchedule(t, uint64(seed)))
		})
	}
	t.Logf("%d decisions, %d collisions, recoveries %d collision / %d hedge / %d gap, %d of them without phase 1",
		st.Announced, st.Collisions, st.RecCollision, st.RecHedge, st.RecGap, st.RecNoPhase1)
	if st.RecNoPhase1 == 0 {
		t.Fatal("no recovery skipped phase 1")
	}
}

// runFastCrashSchedule runs one seeded schedule and returns the ordering
// counters summed over every engine incarnation.
func runFastCrashSchedule(t *testing.T, seed uint64) paxos.Stats {
	t.Helper()
	const n = 5
	rng := xrand.New(seed*0x9e3779b97f4a7c15 + 11)
	c := newSafetyCluster(t, n, seed+2000, func(cfg *core.Config) { cfg.FastPaxos = true })
	c.s.StartAll()
	var st paxos.Stats
	retire := func(i int) { // count the incarnation that ends
		if c.s.Alive(c.ids[i]) && c.replicas[i] != nil && c.replicas[i].Engine() != nil {
			st.Add(c.replicas[i].Engine().Stats())
		}
	}

	// Workload: every 25 ms over the 30 s active phase, one action at each
	// live replica, so their values race for the same instances.
	var next int64
	for at := time.Second; at < 30*time.Second; at += 25 * time.Millisecond {
		c.s.At(c.s.Now().Add(at), func() {
			for i, r := range c.replicas {
				if c.s.Alive(c.ids[i]) && r != nil && r.Ready() {
					next++
					r.Submit(next, nil)
				}
			}
		})
	}

	// Faults: one to three crashes, possibly overlapping, each restarted a
	// few seconds later.
	for range 1 + rng.Intn(3) {
		victim := rng.Intn(n)
		crashAt := 2*time.Second + time.Duration(rng.Intn(25000))*time.Millisecond
		upAt := crashAt + time.Second + time.Duration(rng.Intn(5000))*time.Millisecond
		c.s.At(c.s.Now().Add(crashAt), func() {
			retire(victim)
			c.s.Crash(c.ids[victim])
		})
		c.s.At(c.s.Now().Add(upAt), func() { c.s.Restart(c.ids[victim]) })
	}

	c.s.RunFor(30 * time.Second)
	c.checkAgreement(t, "active phase")

	// Heal: restart every replica, let catch-up finish, then require the
	// same log everywhere.
	for i, id := range c.ids {
		retire(i)
		c.s.Crash(id)
		c.s.Restart(id)
	}
	c.s.RunFor(20 * time.Second)
	c.checkAgreement(t, "restarted")
	ref := c.machines[0].log
	if len(ref) == 0 {
		t.Fatal("no progress at all")
	}
	t.Logf("%d of %d actions applied", len(ref), next)
	for i := 1; i < n; i++ {
		if len(c.machines[i].log) != len(ref) {
			t.Fatalf("node %d converged to %d actions, node 0 to %d", i, len(c.machines[i].log), len(ref))
		}
	}
	for i := range c.ids {
		retire(i)
	}
	return st
}
