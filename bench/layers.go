package main

import (
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
)

// perLayer is reported by every workload with --trace 1, from one traced
// pass whose results are never mixed into the end-to-end numbers. A layer
// is a package of the repository. A metric whose layer a workload does not
// run reads 0 there. Better says which way an optimisation should move it;
// per-layer metrics carry no bound.
var perLayer = []metricDef{
	// Where the bench owns the runtime (order_pipeline): counts per
	// committed action at the node/runtime boundary, virtual waits, and
	// host self times per action (span duration minus child spans).
	{Name: "paxos.msgs_per_action", Unit: "count", Better: "lower"},
	{Name: "paxos.wal_syncs_per_action", Unit: "count", Better: "lower"},
	{Name: "paxos.records_per_sync", Unit: "count", Better: "higher"},
	{Name: "paxos.timers_per_action", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_action", Unit: "count", Better: "lower"},
	{Name: "sim.wal_sync_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.wal_sync_wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.handle_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.send_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.storage_host_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.apply_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.loop_host_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.generator_host_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.overload_host_ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "order.max_rate_per_s", Unit: "1/s", Better: "higher"},
	{Name: "order.saturated_actions_per_s", Unit: "1/s", Better: "higher"},

	// live_cart.
	{Name: "livenet.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "livenet.wal_appends_per_op", Unit: "count", Better: "lower"},
	{Name: "livenet.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "livenet.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "livenet.gen_late_p99_ms", Unit: "ms", Better: "lower"},

	// The web tier (tpcw_crash, tpcw_sharded_txn): the browser-side
	// client, the cluster's public counters and the 10 Hz sampler.
	{Name: "webtier.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.write_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.txn_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.txn_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.failover_gap_ms", Unit: "ms", Better: "lower"},
	{Name: "webtier.client_retries", Unit: "count", Better: "lower"},
	{Name: "webtier.awips", Unit: "1/s", Better: "higher"},
	{Name: "webtier.redispatched", Unit: "count", Better: "lower"},
	{Name: "webtier.err_timeout", Unit: "count", Better: "lower"},
	{Name: "webtier.err_reset", Unit: "count", Better: "lower"},
	{Name: "webtier.err_no_server", Unit: "count", Better: "lower"},
	{Name: "webtier.adm_paced", Unit: "count", Better: "lower"},
	{Name: "webtier.adm_held", Unit: "count", Better: "lower"},
	{Name: "webtier.adm_shed", Unit: "count", Better: "lower"},
	{Name: "webtier.stale_redispatched", Unit: "count", Better: "lower"},
	{Name: "webtier.quality_evictions", Unit: "count", Better: "lower"},
	{Name: "webtier.fence_waits", Unit: "count", Better: "lower"},
	{Name: "webtier.stale_serves", Unit: "count", Better: "lower"},
	{Name: "webtier.txn_commits", Unit: "count", Better: "higher"},
	{Name: "webtier.txn_aborts", Unit: "count", Better: "lower"},
	{Name: "webtier.txn_blocked_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ckpt_writes", Unit: "count", Better: "lower"},
	{Name: "core.ckpt_mb", Unit: "MB", Better: "lower"},
	{Name: "core.ckpt_bases", Unit: "count", Better: "lower"},
	{Name: "core.ckpt_deltas", Unit: "count", Better: "lower"},
	{Name: "paxos.queue_depth_p99", Unit: "count", Better: "lower"},
	{Name: "paxos.backlog_p99", Unit: "count", Better: "lower"},
	{Name: "core.follower_lag_p99", Unit: "count", Better: "lower"},
	{Name: "paxos.leader_changes", Unit: "count", Better: "lower"},
	{Name: "core.recovery_s", Unit: "s", Better: "lower"},
	{Name: "core.recover_restart_s", Unit: "s", Better: "lower"},
	{Name: "core.recover_load_s", Unit: "s", Better: "lower"},
	{Name: "core.recover_resync_s", Unit: "s", Better: "lower"},
	{Name: "shard.group_imbalance", Unit: "ratio", Better: "lower"},

	// Layers timed in isolation on the tpcw_crash population: host time
	// of public functions, the same in every workload's traced run.
	{Name: "tpcw.apply_cart_ns", Unit: "ns", Better: "lower"},
	{Name: "tpcw.apply_buyconfirm_ns", Unit: "ns", Better: "lower"},
	{Name: "tpcw.query_bestsellers_ns", Unit: "ns", Better: "lower"},
	{Name: "tpcw.query_search_ns", Unit: "ns", Better: "lower"},
	{Name: "tpcw.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "tpcw.delta_snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "tpcw.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "tpcw.populate_s", Unit: "s", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "rbe.null_frontend_host_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.route_ns", Unit: "ns", Better: "lower"},

	// Every workload.
	{Name: "host.wall_ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "host.cpu_ns_per_action", Unit: "ns", Better: "lower"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

// routeSink keeps the timed routing calls from being optimised away.
var routeSink int

// timeFor runs fn in growing batches until at least d has passed and
// returns the mean host nanoseconds per call.
func timeFor(d time.Duration, fn func(i int)) float64 {
	calls := 0
	start := time.Now()
	for batch := 1; ; batch *= 2 {
		for i := 0; i < batch; i++ {
			fn(calls)
			calls++
		}
		if el := time.Since(start); el >= d {
			return float64(el.Nanoseconds()) / float64(calls)
		}
	}
}

// nullFrontend answers every interaction at once: against it the browser
// population measures only itself.
type nullFrontend struct{ answered int64 }

func (f *nullFrontend) Do(req rbe.Request, done func(rbe.Response)) {
	f.answered++
	done(rbe.Response{Cart: req.Cart, Customer: req.Customer})
}

// runMicro times single layers in isolation, each for at least a quarter
// of a second, by calling their public functions on the paper population.
func runMicro(o options) map[string]float64 {
	each := 250 * time.Millisecond
	if o.Quick {
		each = 10 * time.Millisecond
	}
	out := map[string]float64{}
	t0 := time.Now()
	proto := tpcw.Populate(paperPopulation)
	out["tpcw.populate_s"] = time.Since(t0).Seconds()
	info := proto.Info()
	now := time.Unix(0, 0).UTC()

	out["tpcw.clone_ms"] = timeFor(each, func(int) { proto.Clone() }) / 1e6
	st := proto.Clone()
	out["tpcw.snapshot_ms"] = timeFor(each, func(int) { st.Snapshot() }) / 1e6

	cart := st.Apply(tpcw.CartUpdateAction{AddItem: 1, AddQty: 1, RandomItem: 1, Now: now}).(tpcw.CartResult).Cart.ID
	out["tpcw.apply_cart_ns"] = timeFor(each, func(i int) {
		// Quantities are set, not added, so the cart stays at 8 lines.
		item := tpcw.ItemID(1 + i%8)
		st.Apply(tpcw.CartUpdateAction{Cart: cart, SetLines: []tpcw.CartLine{{Item: item, Qty: int32(1 + i%3)}}, AddItem: item, AddQty: 1, Now: now})
	})
	out["tpcw.delta_snapshot_ms"] = timeFor(each, func(i int) {
		// One dirty cart per delta: the steady-state checkpoint's floor.
		st.Apply(tpcw.CartUpdateAction{Cart: cart, AddItem: 1, AddQty: 1, Now: now})
		st.SnapshotDelta()
	}) / 1e6
	out["tpcw.apply_buyconfirm_ns"] = timeFor(each, func(i int) {
		c := st.Apply(tpcw.CartUpdateAction{AddItem: tpcw.ItemID(1 + i%info.Items), AddQty: 1, Now: now}).(tpcw.CartResult).Cart.ID
		st.Apply(tpcw.BuyConfirmAction{Cart: c, Customer: tpcw.CustomerID(1 + i%info.Customers), ShipDate: now, Now: now})
	})
	out["tpcw.query_bestsellers_ns"] = timeFor(each, func(i int) {
		st.GetBestSellers(info.Subjects[i%len(info.Subjects)])
	})
	out["tpcw.query_search_ns"] = timeFor(each, func(i int) {
		st.DoSearch(tpcw.SearchByTitle, info.TitleTokens[i%len(info.TitleTokens)])
	})

	s := sim.New(sim.Config{Seed: o.Seed})
	out["sim.event_ns"] = timeFor(each, func(int) {
		for k := 0; k < 1024; k++ {
			s.After(time.Duration(k)*time.Microsecond, func() {})
		}
		s.RunUntilIdle(1 << 20)
	}) / 1024

	// The browsers against a frontend that answers at once, through the
	// same timing client the web-tier workloads use: the generator's share
	// of their host cost per action.
	ns := sim.New(sim.Config{Seed: o.Seed})
	null := &nullFrontend{}
	cl := &client{s: ns, inner: null, groupOf: func(int64) int { return 0 }, perGroup: make([]int64, 1)}
	rbe.New(rbe.Config{Browsers: 1000, Profile: rbe.Shopping, ThinkTime: paperThinkTime, Population: info, Seed: o.Seed}, ns, cl).Start()
	t0 = time.Now()
	for time.Since(t0) < each {
		ns.RunFor(time.Second)
	}
	out["rbe.null_frontend_host_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(max(null.answered, 1))

	table := shard.NewRoutingTable(4)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = tpcw.SessionKey(int64(i))
	}
	out["shard.route_ns"] = timeFor(each, func(i int) { routeSink += table.Group(keys[i%len(keys)]) })
	return out
}
