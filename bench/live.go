package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/livenet"
	"robuststore/internal/paxos"
	"robuststore/internal/shard"
	"robuststore/internal/stats"
	"robuststore/internal/tpcw"
)

// live_cart: the wall-clock runtime. Goroutines, channels and
// time.AfterFunc delivery are the cost here and the simulator does nothing.

var liveCart = workload{
	Name: "live_cart",
	Why:  "the wall-clock runtime: one livenet group of three replicas, where goroutines, channels and timer delivery are the cost and sim does nothing",
	Load: "open loop from one generator goroutine: 2000 cart writes/s over 64 sessions plus 2000 cart reads/s, each timed from its due time; 150 us injected one-way latency; no fault",
	Sim:  false,
	Run:  runLiveCart,
}

const (
	liveSessions = 64
	liveRate     = 2000 // writes per second, and as many reads
	liveItems    = 20   // distinct items per cart, so cart lines stay bounded
)

// livePaxos is cmd/robuststore's timing.
var livePaxos = paxos.Config{
	HeartbeatInterval: 20 * time.Millisecond,
	LeaderTimeout:     150 * time.Millisecond,
	SweepInterval:     10 * time.Millisecond,
	BatchDelay:        time.Millisecond,
}

// liveOps is one generated schedule: op i is due i/liveRate seconds after
// the start, a write and a read on session Session[i].
type liveOps struct {
	Session []int
	Item    []tpcw.ItemID

	// Results, each slot written once by a replica's executor before it
	// bumps done; the generator reads them only after done reached the
	// count it issued.
	writeNs, readNs []int64 // due → applied, wall ns; -1 = failed
	lateNs          []int64 // how late the generator issued the op
	done            atomic.Int64
}

func newLiveOps(rng *rand.Rand, n int) *liveOps {
	ops := &liveOps{
		Session: make([]int, n), Item: make([]tpcw.ItemID, n),
		writeNs: make([]int64, n), readNs: make([]int64, n), lateNs: make([]int64, n),
	}
	for i := 0; i < n; i++ {
		ops.Session[i] = rng.Intn(liveSessions)
		ops.Item[i] = tpcw.ItemID(1 + rng.Intn(liveItems))
	}
	return ops
}

type liveRun struct {
	store *shard.Store
	keys  [liveSessions]string
	carts [liveSessions]tpcw.CartID
	acked [liveSessions]atomic.Int64 // acknowledged adds per session, the first included
	sent  [liveSessions]int64        // adds sent per session (generator goroutine only)
}

// generate issues ops on schedule from the calling goroutine and waits
// (at most five seconds past the schedule) for every completion. It must
// not call Store.Submit: that is executor-only and races on livenet.
func (r *liveRun) generate(ops *liveOps) (issued int64) {
	n := len(ops.Session)
	interval := time.Second / liveRate
	start := time.Now()
	for i := 0; i < n; i++ {
		i := i
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ops.lateNs[i] = int64(time.Since(due))
		sess := ops.Session[i]
		key := r.keys[sess]
		ops.writeNs[i], ops.readNs[i] = -1, -1
		action := tpcw.CartUpdateAction{
			Cart: r.carts[sess], AddItem: ops.Item[i], AddQty: 1, RandomItem: ops.Item[i], Now: due.UTC(),
		}
		if rep := r.store.PickReplica(key); rep != nil && rep.SubmitFrom(action, func(res any, err error) {
			if cr, ok := res.(tpcw.CartResult); err == nil && ok && cr.Err == "" {
				ops.writeNs[i] = int64(time.Since(due))
				r.acked[sess].Add(1)
			}
			ops.done.Add(1)
		}) {
			issued++
			r.sent[sess]++
		}
		cart := r.carts[sess]
		if rep := r.store.PickRead(key, int64(i)); rep != nil && rep.Inspect(func(sm core.StateMachine) {
			if _, ok := sm.(*tpcw.Store).GetCart(cart); ok {
				ops.readNs[i] = int64(time.Since(due))
			}
			ops.done.Add(1)
		}) {
			issued++
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ops.done.Load() < issued && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return issued
}

func runLiveCart(o options, traced bool) (*pass, error) {
	warm, measure := time.Second, 5*time.Second
	if o.Quick {
		warm, measure = 200*time.Millisecond, 700*time.Millisecond
	}
	p := &pass{Model: map[string]float64{}}
	rng := rand.New(rand.NewSource(int64(o.Seed)))

	// Set-up: boot, elect, create one cart per session, warm up.
	setup := startSetup()
	cluster := livenet.New(livenet.Config{Latency: 150 * time.Microsecond, Seed: o.Seed})
	defer cluster.Close()
	var tr *tracer
	var rt shard.Runtime = cluster
	if traced {
		tr = newTracer(false)
		rt = tracedRuntime{nodeRuntime: cluster, tr: tr}
	}
	r := &liveRun{}
	r.store = shard.New(rt, shard.Config{
		Shards:   1,
		Replicas: 3,
		Machine: func(int) core.StateMachine {
			return tpcw.Populate(tpcw.PopConfig{Items: 1000, EBs: 1, Reduction: 4, Seed: 1})
		},
		Core: core.Config{
			ActionSize:         tpcw.ActionSize,
			CheckpointInterval: 2 * time.Second,
			Paxos:              livePaxos,
		},
	})
	cluster.StartAll()
	if err := r.awaitLeader(10 * time.Second); err != nil {
		return nil, err
	}
	if err := r.createCarts(); err != nil {
		return nil, err
	}
	warmOps := newLiveOps(rng, int(warm.Seconds()*liveRate))
	r.generate(warmOps)
	ops := newLiveOps(rng, int(measure.Seconds()*liveRate))
	setup.stop(p)

	var before traceTotals
	if traced {
		before = tr.snapshot()
	}
	var issued int64
	var took time.Duration
	p.Host = measureHost(func() {
		t := time.Now()
		issued = r.generate(ops)
		took = time.Since(t)
	})

	var writes, reads, late []int64
	for i := range ops.Session {
		if ops.writeNs[i] >= 0 {
			writes = append(writes, ops.writeNs[i])
		}
		if ops.readNs[i] >= 0 {
			reads = append(reads, ops.readNs[i])
		}
		late = append(late, ops.lateNs[i])
	}
	p.Attempted = int64(2 * len(ops.Session))
	p.Actions = int64(len(writes) + len(reads))
	p.Failed = p.Attempted - p.Actions
	wms, rms, lms := sortedMs(writes), sortedMs(reads), sortedMs(late)
	p.Model["actions_per_s"] = float64(p.Actions) / took.Seconds()
	p.Model["mean_ms"] = stats.Mean(wms)
	writeP50, _ := percentile(wms, 50)
	var ok bool
	if p.Model["p99_ms"], ok = percentile(wms, 99); !ok {
		p.problemf("too few write samples (%d) to report p99", len(wms))
	}
	lateP99, _ := percentile(lms, 99)
	readP50, _ := percentile(rms, 50)
	if !o.Quiet {
		fmt.Printf("   live_cart: %d writes/s + %d reads/s for %v after %v warm-up; livenet latency 150us; heartbeat %v, leader timeout %v, batch delay %v\n",
			liveRate, liveRate, measure, warm, livePaxos.HeartbeatInterval, livePaxos.LeaderTimeout, livePaxos.BatchDelay)
	}
	fmt.Printf("   live_cart: issued %d of %d, writes n=%d mean %.3f ms p50 %.3f ms p99 %.3f ms; reads n=%d p50 %.3f ms; generator late p50 %.3f ms p99 %.3f ms\n",
		issued, p.Attempted, len(wms), p.Model["mean_ms"], writeP50, p.Model["p99_ms"], len(rms), readP50, lms[len(lms)/2], lateP99)

	r.verify(p)
	if traced {
		t := tr.snapshot().sub(before)
		n := float64(max(p.Actions, 1))
		p.Layer = map[string]float64{
			"livenet.msgs_per_op":        float64(t.Msgs) / n,
			"livenet.wal_appends_per_op": float64(t.Syncs) / n,
			"livenet.cpu_us_per_op":      float64(p.Host.CPUNs) / 1e3 / n,
			"livenet.write_p99_ms":       p.Model["p99_ms"],
			"livenet.read_p50_ms":        readP50,
			"livenet.gen_late_p99_ms":    lateP99,
		}
		reqs := make([]request, 0, min(len(ops.Session), maxSpans))
		for i := 0; i < cap(reqs); i++ {
			due := int64(time.Duration(i) * time.Second / liveRate)
			reqs = append(reqs, request{ID: int64(i), Kind: "cart_write", Start: due, End: due + ops.writeNs[i], Err: ops.writeNs[i] < 0})
		}
		if err := writeTrace(traceFile{
			Workload: "live_cart",
			Seed:     o.Seed,
			Clocks:   "requests: wall ns since the generator started; start is the due time",
			Requests: reqs,
			Layer:    p.Layer,
		}); err != nil {
			p.problemf("%v", err)
		}
	}
	return p, nil
}

func (r *liveRun) awaitLeader(within time.Duration) error {
	for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if st := r.store.Status()[0]; st.Ready == st.Members && st.Leader >= 0 {
			return nil
		}
	}
	return fmt.Errorf("live_cart: the group elected no leader within %v", within)
}

// createCarts gives every session its cart, concurrently.
func (r *liveRun) createCarts() error {
	var done, failed atomic.Int64
	now := time.Now().UTC()
	for s := 0; s < liveSessions; s++ {
		s := s
		r.keys[s] = tpcw.SessionKey(int64(s))
		rep := r.store.PickReplica(r.keys[s])
		if rep == nil || !rep.SubmitFrom(tpcw.CartUpdateAction{AddItem: 1, AddQty: 1, RandomItem: 1, Now: now}, func(res any, err error) {
			if cr, ok := res.(tpcw.CartResult); err == nil && ok && cr.Err == "" {
				r.carts[s] = cr.Cart.ID // read by the generator only after done is observed
				r.acked[s].Add(1)
			} else {
				failed.Add(1)
			}
			done.Add(1)
		}) {
			return fmt.Errorf("live_cart: no replica took the cart creation")
		}
		r.sent[s]++
	}
	for deadline := time.Now().Add(5 * time.Second); done.Load() < liveSessions; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("live_cart: cart creation timed out")
		}
	}
	if failed.Load() > 0 {
		return fmt.Errorf("live_cart: %d cart creations failed", failed.Load())
	}
	return nil
}

// verify is the correctness gate: the replicas converge on one applied
// count, each store is internally consistent, and every session's cart
// holds exactly the adds that were acknowledged.
func (r *liveRun) verify(p *pass) {
	grp := r.store.Group(0)
	n := len(grp.Members())
	agree := false
	for deadline := time.Now().Add(3 * time.Second); !agree && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		agree = true
		for m := 1; m < n; m++ {
			if grp.Replica(m).AppliedCount() != grp.Replica(0).AppliedCount() {
				agree = false
			}
		}
	}
	if !agree {
		p.problemf("replicas did not converge on one applied count")
	}
	type audit struct {
		bad  []string
		qty  [liveSessions]int64
		miss int
	}
	results := make(chan audit, n) // one send per replica asked
	asked := 0
	for m := 0; m < n; m++ {
		rep := grp.Replica(m)
		if rep.Ready() && rep.Inspect(func(sm core.StateMachine) {
			st := sm.(*tpcw.Store)
			a := audit{bad: st.VerifyConsistency()}
			for s, id := range r.carts {
				c, ok := st.GetCart(id)
				if !ok {
					a.miss++
				}
				for _, l := range c.Lines {
					a.qty[s] += int64(l.Qty)
				}
			}
			results <- a
		}) {
			asked++
		} else {
			p.problemf("replica %d is not ready after the run", m)
		}
	}
	for ; asked > 0; asked-- {
		select {
		case a := <-results:
			if len(a.bad) > 0 || a.miss > 0 {
				p.problemf("a replica's store is inconsistent: %v, %d carts missing", a.bad, a.miss)
			}
			for s := range a.qty {
				// An add that was sent but never acknowledged may or may
				// not have been applied; an acknowledged one must have been.
				if acked := r.acked[s].Load(); a.qty[s] < acked || a.qty[s] > r.sent[s] {
					p.problemf("session %d cart holds %d items: %d adds acknowledged, %d sent", s, a.qty[s], acked, r.sent[s])
				}
			}
		case <-time.After(5 * time.Second):
			p.problemf("a replica did not answer the audit")
		}
	}
}
