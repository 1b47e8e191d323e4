package webtier

import (
	"testing"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
)

// shardedTestCluster builds a Shards×Servers deployment (the sharded
// sibling of testCluster).
func shardedTestCluster(t *testing.T, shards, servers int) *Cluster {
	t.Helper()
	proto := tpcw.Populate(tpcw.PopConfig{Items: 400, EBs: 1, Reduction: 8, Seed: 3})
	c := NewCluster(Config{
		Servers:            servers,
		Shards:             shards,
		FastPaxos:          true,
		Store:              proto.Clone,
		Cal:                DefaultCalibration(),
		CheckpointInterval: 30 * time.Second,
		RetainInstances:    1 << 20,
		Seed:               11,
	})
	c.Start()
	c.Sim().RunFor(3 * time.Second)
	return c
}

// TestClusterRebalanceUnderLoad grows a 2-group web tier to 3 groups
// while closed-loop clients keep issuing interactions: the migration must
// complete with a finite window, cause no outage on any group (resharding
// without downtime), and leave the moved sessions being served by the new
// group.
func TestClusterRebalanceUnderLoad(t *testing.T) {
	c := shardedTestCluster(t, 2, 3)
	s := c.Sim()

	// Closed-loop load: 24 clients cycling read→cart→buy over the real
	// catalog (the reduced population has fewer items than PopConfig
	// asked for).
	items := c.Store(0).Info().Items
	customers := c.Store(0).Info().Customers
	stop := s.Now().Add(40 * time.Second)
	total, errs := 0, 0
	carts := make(map[int64]tpcw.CartID)
	var loop func(client int64, step int)
	loop = func(client int64, step int) {
		if !s.Now().Before(stop) {
			return
		}
		var req rbe.Request
		switch step % 3 {
		case 0:
			req = rbe.Request{Client: client, Kind: rbe.Home, Item: tpcw.ItemID(step%items + 1)}
		case 1:
			req = rbe.Request{Client: client, Kind: rbe.ShoppingCart,
				Cart: carts[client], Item: tpcw.ItemID(step%items + 1), Qty: 1}
		case 2:
			req = rbe.Request{Client: client, Kind: rbe.BuyConfirm,
				Cart: carts[client], Customer: tpcw.CustomerID(int(client)%customers + 1), Item: 1}
		}
		c.Frontend().Do(req, func(resp rbe.Response) {
			total++
			if resp.Err {
				errs++
				carts[client] = 0
			} else if resp.Cart != 0 {
				carts[client] = resp.Cart
			} else if req.Kind == rbe.BuyConfirm {
				carts[client] = 0
			}
			s.After(150*time.Millisecond, func() { loop(client, step+1) })
		})
	}
	for cl := int64(0); cl < 24; cl++ {
		cl := cl
		s.At(s.Now().Add(time.Duration(cl)*10*time.Millisecond), func() { loop(cl, int(cl)) })
	}

	done := false
	var phases []string
	s.At(s.Now().Add(5*time.Second), func() {
		c.Rebalance(RebalanceOptions{
			OnPhase: func(p string) { phases = append(phases, p) },
			Done:    func(error) { done = true },
		})
	})
	s.RunUntil(stop.Add(10 * time.Second))

	if !done {
		t.Fatalf("rebalance did not complete; phases=%v stat=%+v", phases, c.Migration())
	}
	if c.Shards() != 3 || c.TotalServers() != 9 {
		t.Fatalf("deployment did not grow: %d groups, %d servers", c.Shards(), c.TotalServers())
	}
	st := c.Migration()
	if st.Epoch != 1 || st.Window() <= 0 {
		t.Fatalf("migration window not measured: %+v", st)
	}
	if st.Window() > 20*time.Second {
		t.Fatalf("migration window %v too long for a healthy handoff", st.Window())
	}
	// No group saw an outage: resharding is not downtime.
	for g, d := range c.GroupDowntimes() {
		if d != 0 {
			t.Errorf("group %d accrued %v downtime during rebalance", g, d)
		}
	}
	// The new group serves moved sessions: at least one client routes
	// there and its requests succeed.
	movedClient := int64(-1)
	for cl := int64(0); cl < 24; cl++ {
		if c.GroupOf(cl) == 2 {
			movedClient = cl
			break
		}
	}
	if movedClient < 0 {
		t.Fatal("no client session moved to the new group")
	}
	resp, got := do(c, rbe.Request{Client: movedClient, Kind: rbe.Home, Item: 1})
	if !got || resp.Err {
		t.Fatalf("moved session not served by the new group: %+v", resp)
	}
	resp, got = do(c, rbe.Request{Client: movedClient, Kind: rbe.ShoppingCart, Item: 2, Qty: 1})
	if !got || resp.Err || resp.Cart == 0 {
		t.Fatalf("moved session cannot write on the new group: %+v", resp)
	}
	// The workload survived the cutover with low friction: errors are a
	// small fraction (moved sessions may lose at most one cart
	// interaction when their cart's row key stayed behind).
	if total == 0 {
		t.Fatal("load loop issued nothing")
	}
	if float64(errs) > 0.10*float64(total) {
		t.Fatalf("%d/%d interactions failed across the rebalance", errs, total)
	}
	// Phase order sanity.
	want := []string{shard.PhaseBoot, shard.PhaseDrain, shard.PhaseCopy, shard.PhaseCleanup, shard.PhaseDone}
	if len(phases) != len(want) {
		t.Fatalf("phases = %v", phases)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d = %s, want %s", i, phases[i], want[i])
		}
	}
	// Every replica of every group still passes the consistency audit.
	for i := 0; i < c.TotalServers(); i++ {
		if st := c.Store(i); st != nil {
			if bad := st.VerifyConsistency(); len(bad) > 0 {
				t.Fatalf("server %d fails the consistency audit after rebalance: %v", i, bad)
			}
		}
	}
}

// TestClusterRebalanceMovesRows: state that diverged from the initial
// population on a source group — an order placed before the rebalance —
// travels to the new group when its rows' partition keys land in a moved
// slice (the keyed snapshot import). The source keeps its copy: in the
// session-routed tier rows are shared across session slices, so the
// migration copies and re-points writers but never deletes.
func TestClusterRebalanceMovesRows(t *testing.T) {
	c := shardedTestCluster(t, 2, 3)
	table0 := c.table
	next, _ := table0.Grow(2)

	// A customer whose row key moves from group 0 to the new group, and a
	// client session served by group 0, to shop on their behalf.
	var moved tpcw.CustomerID
	for id := tpcw.CustomerID(1); id <= 200; id++ {
		key := "customer/" + itoa(int64(id))
		if table0.Group(key) == 0 && next.Group(key) == 2 {
			moved = id
			break
		}
	}
	if moved == 0 {
		t.Fatal("no customer row key moves from group 0 to the new group")
	}
	var client int64
	for cl := int64(0); cl < 100; cl++ {
		if c.GroupOf(cl) == 0 {
			client = cl
			break
		}
	}
	resp, _ := do(c, rbe.Request{Client: client, Kind: rbe.ShoppingCart, Item: 2, Qty: 1})
	if resp.Err || resp.Cart == 0 {
		t.Fatalf("cart setup failed: %+v", resp)
	}
	resp, _ = do(c, rbe.Request{Client: client, Kind: rbe.BuyConfirm, Cart: resp.Cart, Customer: moved, Item: 2})
	if resp.Err || resp.Order == 0 {
		t.Fatalf("order setup failed: %+v", resp)
	}
	order := resp.Order

	s := c.Sim()
	done := false
	s.At(s.Now(), func() {
		c.Rebalance(RebalanceOptions{Done: func(error) { done = true }})
	})
	s.RunFor(30 * time.Second)
	if !done {
		t.Fatalf("rebalance did not complete: %+v", c.Migration())
	}
	newStore := c.Store(2 * 3) // first server of group 2
	if newStore == nil {
		t.Fatal("new group has no live store")
	}
	// The diverged rows followed their keys: the pre-rebalance order and
	// its customer are served by the new group.
	if _, ok := newStore.GetOrder(order); !ok {
		t.Fatalf("order %d did not migrate with customer %d to the new group", order, moved)
	}
	if _, ok := newStore.GetCustomerByID(moved); !ok {
		t.Fatalf("customer %d's row did not migrate to the new group", moved)
	}
	if bad := newStore.VerifyConsistency(); len(bad) > 0 {
		t.Fatalf("new group fails the consistency audit after import: %v", bad)
	}
	// The source keeps serving its copy (shared rows are copied, not
	// deleted).
	if _, ok := c.Store(0).GetCustomerByID(moved); !ok {
		t.Error("source group lost its shared copy of the customer row")
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
