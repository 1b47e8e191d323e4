package webtier

// Cross-shard transaction tests: the single-group fast path stays
// record-free, the happy cross-group path commits exactly once on every
// participant, and crashes planted inside the two windows the protocol
// is built around — between prepare and decision, and between the
// decision record and its fanout — always resolve every stranded branch
// to one atomic outcome. The tests step the simulator in small
// increments and read replica state directly between steps (the sim is
// stopped, so the loop-confined accessors are safe), which lets them
// observe a transaction mid-flight and crash the exact server playing
// coordinator at that instant.

import (
	"maps"
	"slices"
	"testing"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/tpcw"
)

// clientInGroup finds a session id the router pins to group g.
func clientInGroup(t *testing.T, c *Cluster, g int) int64 {
	t.Helper()
	for id := int64(1); id < 200; id++ {
		if c.GroupOf(id) == g {
			return id
		}
	}
	t.Fatalf("no client id under 200 routes to group %d", g)
	return 0
}

// customerInGroup finds a base-population customer whose row lives on
// group g.
func customerInGroup(t *testing.T, c *Cluster, g int) tpcw.CustomerID {
	t.Helper()
	n := c.Store(0).Info().Customers
	for id := 1; id <= n; id++ {
		if c.CustomerGroup(tpcw.CustomerID(id)) == g {
			return tpcw.CustomerID(id)
		}
	}
	t.Fatalf("no base customer routes to group %d", g)
	return 0
}

// itemsInGroup finds n base-population items whose rows live on group g.
func itemsInGroup(t *testing.T, c *Cluster, g, n int) []tpcw.ItemID {
	t.Helper()
	total := c.Store(0).Info().Items
	var out []tpcw.ItemID
	for id := 1; id <= total && len(out) < n; id++ {
		if c.ItemGroup(tpcw.ItemID(id)) == g {
			out = append(out, tpcw.ItemID(id))
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d wanted items route to group %d", len(out), n, g)
	}
	return out
}

// stepUntil advances the simulation in 1 ms increments until cond holds
// or the budget runs out.
func stepUntil(c *Cluster, budget time.Duration, cond func() bool) bool {
	deadline := c.Sim().Now().Add(budget)
	for !cond() {
		if !c.Sim().Now().Before(deadline) {
			return false
		}
		c.Sim().RunFor(time.Millisecond)
	}
	return true
}

// preparedIn returns one prepared branch held by any live replica of
// group g whose server armed its resolution loop.
func preparedIn(c *Cluster, servers, g int) (id string, ok bool) {
	for _, i := range c.Voters(g) {
		if s, r := c.Server(i), c.Replica(i); s != nil && r != nil {
			for _, id := range slices.Sorted(maps.Keys(s.txnArmed)) {
				if r.TxnPrepared(id) {
					return id, true
				}
			}
		}
	}
	return "", false
}

// preparedAnywhere reports any live replica still staging a branch.
func preparedAnywhere(c *Cluster) bool {
	for i := 0; i < c.TotalServers(); i++ {
		if r := c.Replica(i); r != nil && r.HasPreparedTxns() {
			return true
		}
	}
	return false
}

// coordinatorOf finds the group-g server holding live coordinator
// bookkeeping for an in-flight transaction, or -1.
func coordinatorOf(c *Cluster, servers, g int) int {
	for _, i := range c.Voters(g) {
		if s := c.Server(i); s != nil && len(s.txnCoords) > 0 {
			return i
		}
	}
	return -1
}

// sweptOn reports whether group g applied its sweep branch: some live
// replica shows every listed item stamped with the sweep's tag. One
// branch is one atomic action, so all-or-nothing holds per replica.
func sweptOn(c *Cluster, servers, g int, items []tpcw.ItemID, tag string) bool {
	for _, i := range c.Voters(g) {
		st := c.Store(i)
		if st == nil {
			continue
		}
		all := true
		for _, id := range items {
			if it, ok := st.GetBook(id); !ok || it.SweptTag != tag {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// giftsTaggedOn returns the most-advanced live replica's count of orders
// carrying the tag on group g.
func giftsTaggedOn(c *Cluster, servers, g int, tag string) int {
	max := 0
	for _, i := range c.Voters(g) {
		if st := c.Store(i); st != nil {
			if n := st.OrdersTagged(tag); n > max {
				max = n
			}
		}
	}
	return max
}

// itemKeysUnblocked asserts no live replica still blocks the items'
// conflict keys (the prepared branch released them with its outcome).
func itemKeysUnblocked(t *testing.T, c *Cluster, items []tpcw.ItemID) {
	t.Helper()
	for i := 0; i < c.TotalServers(); i++ {
		r := c.Replica(i)
		if r == nil {
			continue
		}
		for _, id := range items {
			if r.TxnBlocksInt(tpcw.ItemPrefix, int64(id)) {
				t.Errorf("server %d still blocks item %d after resolution", i, id)
			}
		}
	}
}

// TestTxnFastPathOrdersNoRecords: a gift whose recipient shares the
// buyer's group and a sweep whose items are all group-local take the
// plain submit path — correct results, and zero transaction records or
// outcome counters anywhere in the cluster.
func TestTxnFastPathOrdersNoRecords(t *testing.T) {
	const shards, servers = 2, 3
	c := shardedCluster(t, shards, servers)
	client := clientInGroup(t, c, 0)
	peer := customerInGroup(t, c, 0)

	resp, got := do(c, rbe.Request{Client: client, Kind: rbe.GiftPurchase,
		Customer: 1, Peer: peer, Item: 3, Tag: "fast-gift"})
	if !got || resp.Err || resp.Order == 0 {
		t.Fatalf("same-group gift failed: %+v got=%v", resp, got)
	}
	if n := giftsTaggedOn(c, servers, 0, "fast-gift"); n != 1 {
		t.Errorf("fast-path gift applied %d times on group 0, want 1", n)
	}
	if n := giftsTaggedOn(c, servers, 1, "fast-gift"); n != 0 {
		t.Errorf("fast-path gift leaked onto group 1 (%d orders)", n)
	}

	items := itemsInGroup(t, c, 0, 2)
	resp, got = do(c, rbe.Request{Client: client, Kind: rbe.StockSweep,
		Items: items, Cost: 123.25, Tag: "fast-sweep"})
	if !got || resp.Err {
		t.Fatalf("all-local sweep failed: %+v got=%v", resp, got)
	}
	if !sweptOn(c, servers, 0, items, "fast-sweep") {
		t.Error("all-local sweep left items unswept on the owning group")
	}

	// The fast path must be record-free: no outcome counters moved, no
	// branch was ever staged.
	for g := 0; g < shards; g++ {
		commits, aborts, blocked := c.TxnStats(g)
		if commits != 0 || aborts != 0 || blocked != 0 {
			t.Errorf("group %d counted txn activity on the fast path: commits=%d aborts=%d blocked=%v",
				g, commits, aborts, blocked)
		}
	}
	if preparedAnywhere(c) {
		t.Error("fast-path interactions staged a prepared branch")
	}
}

// TestTxnCrossShardCommit: the happy 2PC path. A cross-group gift lands
// exactly once on the recipient's group, a both-group sweep stamps every
// item on both groups, and afterwards each group has ordered exactly one
// commit outcome per transaction with nothing left prepared or blocked.
func TestTxnCrossShardCommit(t *testing.T) {
	const shards, servers = 2, 3
	c := shardedCluster(t, shards, servers)
	client := clientInGroup(t, c, 0)
	peer := customerInGroup(t, c, 1)

	resp, got := do(c, rbe.Request{Client: client, Kind: rbe.GiftPurchase,
		Customer: 1, Peer: peer, Item: 3, Tag: "x-gift"})
	if !got || resp.Err {
		t.Fatalf("cross-group gift failed: %+v got=%v", resp, got)
	}
	if n := giftsTaggedOn(c, servers, 1, "x-gift"); n != 1 {
		t.Errorf("gift delivered %d times on recipient group, want 1", n)
	}
	if n := giftsTaggedOn(c, servers, 0, "x-gift"); n != 0 {
		t.Errorf("gift order leaked onto the buyer's group (%d orders)", n)
	}

	g0 := itemsInGroup(t, c, 0, 2)
	g1 := itemsInGroup(t, c, 1, 2)
	items := append(append([]tpcw.ItemID{}, g0...), g1...)
	resp, got = do(c, rbe.Request{Client: client, Kind: rbe.StockSweep,
		Items: items, Cost: 321.75, Tag: "x-sweep"})
	if !got || resp.Err {
		t.Fatalf("cross-group sweep failed: %+v got=%v", resp, got)
	}
	if !sweptOn(c, servers, 0, g0, "x-sweep") || !sweptOn(c, servers, 1, g1, "x-sweep") {
		t.Errorf("sweep half-applied: group0=%v group1=%v",
			sweptOn(c, servers, 0, g0, "x-sweep"), sweptOn(c, servers, 1, g1, "x-sweep"))
	}

	// Two transactions, each with a branch on both groups: one commit
	// outcome per group per transaction, no aborts.
	for g := 0; g < shards; g++ {
		commits, aborts, _ := c.TxnStats(g)
		if commits != 2 || aborts != 0 {
			t.Errorf("group %d: commits=%d aborts=%d, want 2/0", g, commits, aborts)
		}
	}
	if preparedAnywhere(c) {
		t.Error("branches left prepared after committed transactions")
	}
	itemKeysUnblocked(t, c, items)
}

// issueSweep submits a cross-group sweep without waiting for the reply,
// returning the per-group item sets and reply observers.
func issueSweep(t *testing.T, c *Cluster, client int64, tag string) (g0, g1 []tpcw.ItemID, replied *bool, ok *bool) {
	t.Helper()
	g0 = itemsInGroup(t, c, 0, 2)
	g1 = itemsInGroup(t, c, 1, 2)
	items := append(append([]tpcw.ItemID{}, g0...), g1...)
	replied, ok = new(bool), new(bool)
	s := c.Sim()
	s.At(s.Now(), func() {
		c.Frontend().Do(rbe.Request{Client: client, Kind: rbe.StockSweep,
			Items: items, Cost: 777.5, Tag: tag}, func(r rbe.Response) {
			*replied, *ok = true, !r.Err
		})
	})
	return g0, g1, replied, ok
}

// assertTxnAtomic is the shared post-crash judgement: nothing stays
// prepared, both groups reach the same outcome, an OK reply implies the
// effects exist, and the groups' outcome records never disagree.
func assertTxnAtomic(t *testing.T, c *Cluster, servers int, g0, g1 []tpcw.ItemID, tag string, replied, ok bool) {
	t.Helper()
	if preparedAnywhere(c) {
		t.Error("a prepared branch was never resolved")
	}
	s0 := sweptOn(c, servers, 0, g0, tag)
	s1 := sweptOn(c, servers, 1, g1, tag)
	if s0 != s1 {
		t.Errorf("half-applied transaction: group0 swept=%v, group1 swept=%v", s0, s1)
	}
	if replied && ok && !s0 {
		t.Error("client was told commit but the effects are missing")
	}
	c0, a0, _ := c.TxnStats(0)
	c1, a1, _ := c.TxnStats(1)
	if (c0 > 0 && a1 > 0) || (a0 > 0 && c1 > 0) {
		t.Errorf("groups recorded opposite outcomes: g0 commits=%d aborts=%d, g1 commits=%d aborts=%d",
			c0, a0, c1, a1)
	}
	itemKeysUnblocked(t, c, append(append([]tpcw.ItemID{}, g0...), g1...))
}

// TestTxnCoordinatorCrashInPrepareWindow plants a coordinator crash in
// the window between the participant staging its prepare and the
// decision record: the stranded branch must resolve through the home
// group's (presumed-abort or real) decision state, atomically on both
// groups, with its conflict keys released.
func TestTxnCoordinatorCrashInPrepareWindow(t *testing.T) {
	const shards, servers = 2, 3
	c := shardedCluster(t, shards, servers)
	client := clientInGroup(t, c, 0)
	g0, g1, replied, ok := issueSweep(t, c, client, "coord-crash")

	if !stepUntil(c, 3*time.Second, func() bool {
		_, found := preparedIn(c, servers, 1)
		return found
	}) {
		t.Fatal("participant group never staged the prepared branch")
	}
	coord := coordinatorOf(c, servers, 0)
	if coord < 0 {
		t.Fatal("no server on the home group holds coordinator state")
	}
	c.Crash(coord) // the watchdog restarts it; its restored branches are re-armed

	c.Sim().RunFor(45 * time.Second)
	assertTxnAtomic(t, c, servers, g0, g1, "coord-crash", *replied, *ok)
}

// TestTxnCoordinatorCrashAfterDecision crashes the coordinator once the
// decision record is durably ordered in its home group: whatever the
// record says is what every participant must end up applying, coordinator
// memory be damned.
func TestTxnCoordinatorCrashAfterDecision(t *testing.T) {
	const shards, servers = 2, 3
	c := shardedCluster(t, shards, servers)
	client := clientInGroup(t, c, 0)
	g0, g1, replied, ok := issueSweep(t, c, client, "post-decision")

	const home = 0 // the client's group coordinates
	var id string
	if !stepUntil(c, 3*time.Second, func() bool {
		var found bool
		id, found = preparedIn(c, servers, 1)
		return found
	}) {
		t.Fatal("participant group never staged the prepared branch")
	}
	decided := func() (commit, known bool) {
		for _, i := range c.Voters(home) {
			if r := c.Replica(i); r != nil {
				if cm, k := r.TxnDecided(id); k {
					return cm, true
				}
			}
		}
		return false, false
	}
	if !stepUntil(c, 5*time.Second, func() bool { _, known := decided(); return known }) {
		t.Fatal("no decision record was ever ordered in the home group")
	}
	commit, _ := decided()
	if coord := coordinatorOf(c, servers, home); coord >= 0 {
		c.Crash(coord)
	} // else the fanout already completed and the coordinator forgot the txn

	c.Sim().RunFor(45 * time.Second)
	s1 := sweptOn(c, servers, 1, g1, "post-decision")
	if s1 != commit {
		t.Errorf("participant state (swept=%v) contradicts the recorded decision (commit=%v)", s1, commit)
	}
	assertTxnAtomic(t, c, servers, g0, g1, "post-decision", *replied, *ok)
}

// TestTxnParticipantCrashHoldingPrepared crashes the participant group's
// leader while it holds a prepared branch: the coordinator's member
// rotation keeps the protocol moving through the survivors, and the
// restarted member converges on the same outcome from its replayed log.
func TestTxnParticipantCrashHoldingPrepared(t *testing.T) {
	const shards, servers = 2, 3
	c := shardedCluster(t, shards, servers)
	client := clientInGroup(t, c, 0)
	g0, g1, replied, ok := issueSweep(t, c, client, "part-crash")

	if !stepUntil(c, 3*time.Second, func() bool {
		_, found := preparedIn(c, servers, 1)
		return found
	}) {
		t.Fatal("participant group never staged the prepared branch")
	}
	victim := c.LeaderOf(1)
	if victim < 0 {
		t.Fatal("participant group has no leader to crash")
	}
	c.Crash(victim)

	c.Sim().RunFor(45 * time.Second)
	assertTxnAtomic(t, c, servers, g0, g1, "part-crash", *replied, *ok)
	// The surviving quorum should have carried the transaction through.
	if !*replied {
		t.Error("client never heard back despite a quorum surviving on every group")
	}
	// Every live member of the participant group converged on the outcome.
	want := sweptOn(c, servers, 1, g1, "part-crash")
	for _, i := range c.Voters(1) {
		st := c.Store(i)
		if st == nil {
			continue
		}
		got := true
		for _, it := range g1 {
			if b, okB := st.GetBook(it); !okB || b.SweptTag != "part-crash" {
				got = false
			}
		}
		if got != want {
			t.Errorf("group-1 member %d diverges from the group outcome (swept=%v, want %v)", i, got, want)
		}
	}
}
