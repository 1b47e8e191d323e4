// Command robuststore boots a live RobustStore cluster in-process — the
// TPC-W bookstore replicated over Treplica, optionally hash-partitioned
// across several independent Paxos groups (internal/shard) — drives a
// closed-loop browser population against it, optionally kills and
// recovers a replica, and reports throughput and consistency. It is the
// live-runtime counterpart of the simulator experiments: same protocol
// code, real goroutines and wall-clock time.
//
// Usage:
//
//	robuststore -shards 2 -replicas 3 -browsers 50 -duration 10s -crash
//	robuststore -shards 2 -replicas 3 -duration 12s -rebalance
//
// With -rebalance the store grows by one Paxos group mid-run: the
// epoch-versioned routing table advances one epoch, the moving hash
// slices' rows stream to the new group through the ordered log, and the
// cutover publishes atomically while the shoppers keep running.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/env"
	"robuststore/internal/livenet"
	"robuststore/internal/paxos"
	"robuststore/internal/shard"
	"robuststore/internal/tpcw"
	"robuststore/internal/xrand"
)

func main() {
	var (
		shards   = flag.Int("shards", 1, "independent Paxos groups the store is partitioned into")
		replicas = flag.Int("replicas", 3, "bookstore replicas per shard group")
		browsers = flag.Int("browsers", 30, "concurrent emulated shoppers")
		duration = flag.Duration("duration", 8*time.Second, "run length")
		crash    = flag.Bool("crash", true, "kill and recover one replica per shard mid-run")
		rebal    = flag.Bool("rebalance", false, "add one group mid-run and live-migrate its hash-space share to it")
	)
	flag.Parse()
	if *shards < 1 || *replicas < 1 {
		fmt.Fprintln(os.Stderr, "robuststore: -shards and -replicas must be at least 1")
		os.Exit(2)
	}
	if err := run(*shards, *replicas, *browsers, *duration, *crash, *rebal); err != nil {
		fmt.Fprintln(os.Stderr, "robuststore:", err)
		os.Exit(1)
	}
}

func run(nShards, nReplicas, nBrowsers int, duration time.Duration, crash, rebal bool) error {
	cluster := livenet.New(livenet.Config{Latency: 150 * time.Microsecond})
	defer cluster.Close()

	store := shard.New(cluster, shard.Config{
		Shards:   nShards,
		Replicas: nReplicas,
		Machine: func(g int) core.StateMachine {
			// Each shard is an independent partition with its own
			// population (per-shard seed keeps them distinguishable).
			return tpcw.Populate(tpcw.PopConfig{
				Items: 1000, EBs: 1, Reduction: 4, Seed: uint64(g)*31 + 1,
			})
		},
		Core: core.Config{
			ActionSize:         tpcw.ActionSize,
			CheckpointInterval: 2 * time.Second,
			Paxos: paxos.Config{
				HeartbeatInterval: 20 * time.Millisecond,
				LeaderTimeout:     150 * time.Millisecond,
				SweepInterval:     10 * time.Millisecond,
				BatchDelay:        time.Millisecond,
			},
		},
	})
	cluster.StartAll()
	if err := awaitService(store); err != nil {
		return err
	}
	var info tpcw.PopulationInfo
	if !inspect(store.Group(0).Replica(0), func(bs *tpcw.Store) { info = bs.Info() }) {
		return fmt.Errorf("shard 0 replica 0 did not answer")
	}
	fmt.Printf("bookstore up: %d shards x %d replicas, %d items, %d customers per shard\n",
		nShards, nReplicas, info.Items, info.Customers)

	ctx, cancel := context.WithTimeout(context.Background(), duration+20*time.Second)
	defer cancel()
	stop := time.Now().Add(duration)

	var ops, errs, orders atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < nBrowsers; b++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := xrand.New(uint64(id)*7919 + 13)
			shopper(ctx, stop, rng, store, int64(id), &ops, &errs, &orders)
		}(b)
	}

	if crash {
		// Kill the last member of every group, then recover it — the
		// per-shard incarnation of the paper's one-crash faultload.
		var victims []env.NodeID
		for g := 0; g < nShards; g++ {
			members := store.Group(g).Members()
			victims = append(victims, members[len(members)-1])
		}
		time.AfterFunc(duration/3, func() {
			fmt.Printf("... killing nodes %v\n", victims)
			for _, id := range victims {
				cluster.Crash(id)
			}
		})
		time.AfterFunc(duration*2/3, func() {
			fmt.Printf("... restarting nodes %v\n", victims)
			for _, id := range victims {
				cluster.Restart(id)
			}
		})
	}

	if rebal {
		// Live resharding: one more group joins mid-run, its hash-space
		// share migrates through the ordered log, and the routing epoch
		// advances — all while the shoppers keep executing.
		time.AfterFunc(duration/3, func() {
			fmt.Printf("... rebalancing: adding group %d\n", store.Shards())
			store.Rebalance(shard.RebalanceOptions{
				OnPhase: func(phase string) { fmt.Printf("... migration phase: %s\n", phase) },
				Done: func(err error) {
					st := store.Migration()
					if err != nil {
						fmt.Printf("... rebalance failed: %v\n", err)
						return
					}
					fmt.Printf("... rebalance done: epoch %d, %d/%d slices moved, window %s\n",
						st.Epoch, st.MovedSlices, st.TotalSlices, st.Window())
				},
			})
		})
	}

	wg.Wait()
	fmt.Printf("done: %d interactions, %d orders placed, %d errors (%.3f%% accuracy)\n",
		ops.Load(), orders.Load(), errs.Load(),
		100*float64(ops.Load()-errs.Load())/float64(max(ops.Load(), 1)))

	// Let recovered replicas finish re-synchronizing, then verify
	// convergence and invariants per shard.
	time.Sleep(2 * time.Second)
	for _, gs := range store.Status() {
		grp := store.Group(gs.Shard)
		for m := 0; m < nReplicas; m++ {
			r := grp.Replica(m)
			if r == nil || !r.Ready() {
				continue
			}
			var bad []string
			if !inspect(r, func(bs *tpcw.Store) { bad = bs.VerifyConsistency() }) {
				return fmt.Errorf("shard %d replica %d did not answer the audit", gs.Shard, m)
			}
			if len(bad) > 0 {
				return fmt.Errorf("shard %d replica %d inconsistent: %v", gs.Shard, m, bad)
			}
		}
		fmt.Printf("shard %d: ready=%d/%d leader=member%d applied=%d backlog=%d\n",
			gs.Shard, gs.Ready, gs.Members, gs.Leader, gs.Applied, gs.Backlog)
	}
	fmt.Println("all live replicas consistent")
	return nil
}

// shopper is one closed-loop session: browse, fill a cart, buy. All of a
// session's writes are routed by its session key, pinning its cart and
// orders to one shard.
func shopper(ctx context.Context, stop time.Time, rng *xrand.Rand,
	store *shard.Store, session int64, ops, errs, orders *atomic.Int64) {

	key := tpcw.SessionKey(session)
	var cart tpcw.CartID
	for time.Now().Before(stop) {
		if ctx.Err() != nil {
			return
		}
		now := time.Now().UTC()
		item := tpcw.ItemID(rng.Intn(200) + 1)
		var err error
		switch rng.Intn(5) {
		case 0, 1: // browse, spread across the owning shard's replicas
			if r := store.PickRead(key, session); r != nil && r.Ready() {
				subject := rng.Intn(4)
				inspect(r, func(bs *tpcw.Store) {
					bs.GetBook(item)
					bs.GetBestSellers(bs.Subjects()[subject])
				})
			}
		case 2, 3: // add to cart
			var res any
			res, err = store.Execute(ctx, key, tpcw.CartUpdateAction{
				Cart: cart, AddItem: item, AddQty: 1, RandomItem: item, Now: now,
			})
			if err == nil {
				cart = res.(tpcw.CartResult).Cart.ID
			}
		case 4: // buy
			if cart == 0 {
				continue
			}
			var res any
			res, err = store.Execute(ctx, key, tpcw.BuyConfirmAction{
				Cart: cart, Customer: tpcw.CustomerID(rng.Intn(300) + 1),
				ShipDate: now.AddDate(0, 0, 1+rng.Intn(7)), Now: now,
			})
			if err == nil {
				br := res.(tpcw.BuyConfirmResult)
				if br.Err == "" {
					orders.Add(1)
				}
				cart = 0
			}
		}
		ops.Add(1)
		if err != nil {
			errs.Add(1)
		}
		time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
	}
}

// inspect runs fn with the replica's bookstore on the replica's own
// executor and waits for it: the state machine is confined to that loop, so
// reading it from here would race the replica's applies. It reports false
// when the replica does not answer within a second (crashed, or not
// started).
func inspect(r *core.Replica, fn func(bs *tpcw.Store)) bool {
	done := make(chan struct{})
	if !r.Inspect(func(sm core.StateMachine) {
		fn(sm.(*tpcw.Store))
		close(done)
	}) {
		return false
	}
	select {
	case <-done:
		return true
	case <-time.After(time.Second):
		return false
	}
}

func awaitService(store *shard.Store) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ready := 0
		for _, gs := range store.Status() {
			if gs.Ready > 0 && gs.Leader >= 0 {
				ready++
			}
		}
		if ready == store.Shards() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("service did not come up")
}
