package main

import (
	"fmt"
	"math/rand"
	"time"

	"robuststore/internal/core"
	"robuststore/internal/paxos"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/stats"
)

// order_pipeline: the ordering core alone. One Paxos group of three
// replicas on the simulator's default disk and network, a counter for a
// state machine, and an open-loop rate ladder.

var orderPipeline = workload{
	Name:  "order_pipeline",
	Why:   "ordering core alone: paxos, core and sim do the work, webtier/tpcw/rbe/livenet none; an allocation diet or batching change must show here",
	Load:  "open loop, 2 ms ticks over 512 keys, ladder 25k..200k actions/s, stops after the first failing rung (p99 > 50 ms or backlog left)",
	Sim:   true,
	Gated: true,
	Run:   runOrderPipeline,
}

const (
	orderTick       = 2 * time.Millisecond
	orderKeys       = 512
	orderActionSize = 160
	orderLimitMs    = 50.0  // a rung passes while p99 stays at or under this
	orderReportRate = 50000 // the rung mean_ms and p99_ms are reported at
)

// orderRates is the ladder, in actions per second.
var orderRates = []int{25000, 50000, 75000, 100000, 125000, 150000, 200000}

// orderPaxos is the pipeline shape under test (the group-commit engine's
// best row in BENCH_batching.json).
var orderPaxos = paxos.Config{BatchDelay: time.Millisecond, MaxBatchCmds: 64, MaxInFlight: 32}

// counterMachine counts applied actions: the cheapest deterministic state
// machine, so the measurement is the ordering pipeline and nothing else.
type counterMachine struct{ n int64 }

func (m *counterMachine) Execute(any) any        { m.n++; return m.n }
func (m *counterMachine) Snapshot() (any, int64) { return m.n, 8 }
func (m *counterMachine) Restore(data any)       { m.n, _ = data.(int64) }

// orderAction is the unit of offered load; its modeled size is
// orderActionSize bytes.
type orderAction struct{ Key int32 }

// rungResult is one step of the ladder.
type rungResult struct {
	Rate       int
	Submitted  int64
	InWindow   int64 // completed while the rung was still submitting
	Unfinished int64 // still outstanding after the drain
	Mean       float64
	P50, P99   float64
	Passed     bool
	Host       hostCost
	Trace      traceTotals // traced pass: what the rung added to the totals
	Waits      []int64     // traced pass: the rung's Append→done waits, virtual ns
}

// climb runs the ladder's rungs in order and stops after the first that
// fails: rungs past saturation only measure the queue, at great host cost.
func climb(rates []int, run func(rate int) rungResult) []rungResult {
	var out []rungResult
	for _, rate := range rates {
		res := run(rate)
		out = append(out, res)
		if !res.Passed {
			break
		}
	}
	return out
}

// rungPassed is the latency limit: p99 within the limit, reported only
// with enough samples beyond it, and nothing left unfinished.
func rungPassed(p99 float64, p99ok bool, unfinished int64) bool {
	return p99ok && p99 <= orderLimitMs && unfinished == 0
}

type orderRun struct {
	s     *sim.Sim
	store *shard.Store
	tr    *tracer
	keys  []string

	next      int
	tick      int64
	submitted int64
	completed int64
	lat       []int64 // virtual ns, the current rung's completions
}

func runOrderPipeline(o options, traced bool) (*pass, error) {
	rungDur, drain, warm := 4*time.Second, 5*time.Second, 4*time.Second
	rates := orderRates
	if o.Quick {
		rungDur, warm = 200*time.Millisecond, 100*time.Millisecond
		rates = []int{25000, 50000, 200000, 250000}
	}
	p := &pass{Model: map[string]float64{}}

	// Set-up: build and boot the group, elect, and run a warm-up rung at
	// the reporting rate so the ladder does not pay for lazy growth (maps,
	// slices, the event heap) inside the system. The warm-up is also what
	// makes setup_s long enough to measure: without it set-up is 40 ms.
	setup := startSetup()
	r := &orderRun{}
	if traced {
		r.tr = newTracer(true)
	}
	r.s = sim.New(sim.Config{Seed: o.Seed})
	var rt shard.Runtime = r.s
	if traced {
		rt = tracedRuntime{nodeRuntime: r.s, tr: r.tr}
	}
	r.store = shard.New(rt, shard.Config{
		Shards:   1,
		Replicas: 3,
		Machine: func(int) core.StateMachine {
			if traced {
				return &tracedMachine{StateMachine: &counterMachine{}, tr: r.tr}
			}
			return &counterMachine{}
		},
		Core: core.Config{
			CheckpointInterval: time.Hour, // checkpoints off the measured path
			ActionSize:         func(any) int64 { return orderActionSize },
			Paxos:              orderPaxos,
		},
	})
	r.s.StartAll()
	r.s.RunFor(2 * time.Second)
	rng := rand.New(rand.NewSource(int64(o.Seed)))
	r.keys = make([]string, orderKeys)
	for i, k := range rng.Perm(orderKeys) {
		r.keys[i] = fmt.Sprintf("key/%d", k)
	}
	maxRate := rates[len(rates)-1]
	r.lat = make([]int64, 0, int(float64(maxRate)*rungDur.Seconds())+maxRate/100)
	r.rung(orderReportRate, warm, drain)
	if r.completed == 0 {
		return nil, fmt.Errorf("order_pipeline: warm-up completed nothing (no leader?)")
	}
	setup.stop(p)

	// Timed section: the ladder. Host cost is summed over the passing
	// rungs only; the failing rung measures the queue, not the system, and
	// is reported on its own.
	rungs := climb(rates, func(rate int) rungResult { return r.rung(rate, rungDur, drain) })
	// passing sums Submitted, Host and Trace over the passing rungs; its Rate
	// and InWindow are the highest passing rung's.
	var passing, overload rungResult
	var waits []int64
	for _, res := range rungs {
		p.Attempted += res.Submitted
		p.Failed += res.Unfinished
		if res.Rate == orderReportRate {
			p.Model["mean_ms"], p.Model["p99_ms"] = res.Mean, res.P99
		}
		if !res.Passed {
			overload = res
			continue
		}
		passing.Rate, passing.InWindow = res.Rate, res.InWindow
		passing.Submitted += res.Submitted
		passing.Host = addHost(passing.Host, res.Host)
		passing.Trace = passing.Trace.add(res.Trace)
		waits = append(waits, res.Waits...)
	}
	// actions_per_s is what the group committed while the highest passing
	// rung was submitting: the highest rate that meets the latency limit,
	// as delivered. What it commits past saturation (the last rung run: the
	// first to fail, or the top of the ladder) is reported beside it, but
	// flips between two regimes (~104k and ~113k/s) from seed to seed.
	p.Model["actions_per_s"] = float64(passing.InWindow) / rungDur.Seconds()
	p.Model["saturated_per_s"] = float64(rungs[len(rungs)-1].InWindow) / rungDur.Seconds()
	p.Model["max_rate_per_s"] = float64(passing.Rate)
	p.Actions = passing.Submitted // a passing rung leaves nothing unfinished
	p.Host = passing.Host

	if !o.Quiet {
		fmt.Printf("   order_pipeline: sim disk/net defaults (sync 4 ms, 45 MB/s write; 120 us + jitter 0.5, 1 Gbps); batch delay %v, %d commands/batch, %d in flight; %d B actions; rungs of %v\n",
			orderPaxos.BatchDelay, orderPaxos.MaxBatchCmds, orderPaxos.MaxInFlight, orderActionSize, rungDur)
		for _, g := range rungs {
			fmt.Printf("   rung %7d/s: n=%d committed in window %.0f/s, mean %.3f ms, p50 %.3f ms, p99 %.3f ms, unfinished %d, passed=%v\n",
				g.Rate, g.Submitted-g.Unfinished, float64(g.InWindow)/rungDur.Seconds(), g.Mean, g.P50, g.P99, g.Unfinished, g.Passed)
		}
	}
	if _, ok := p.Model["mean_ms"]; !ok {
		p.problemf("the ladder ended before the %d/s rung that mean_ms and p99_ms are reported at", orderReportRate)
	}
	if p.Actions == 0 {
		p.problemf("no rung passed")
	}
	r.verify(p)
	if traced {
		r.layerMetrics(p, o.Seed, passing, overload, waits)
	}
	return p, nil
}

func addHost(a, b hostCost) hostCost {
	return hostCost{
		WallNs:     a.WallNs + b.WallNs,
		CPUNs:      a.CPUNs + b.CPUNs,
		Mallocs:    a.Mallocs + b.Mallocs,
		Bytes:      a.Bytes + b.Bytes,
		LiveHeapMB: b.LiveHeapMB, // the heap after the latest section
	}
}

// rung offers rate actions/s for dur of virtual time, then lets the group
// drain for at most drain. Each action is timed from its tick's due time;
// on the simulator a tick never runs late, so the due time is the tick's
// virtual time.
func (r *orderRun) rung(rate int, dur, drain time.Duration) rungResult {
	res := rungResult{Rate: rate}
	perTick := rate * int(orderTick) / int(time.Second)
	r.lat = r.lat[:0]
	sub0, done0 := r.submitted, r.completed
	stop := r.s.Now().Add(dur)
	var pump func()
	pump = func() {
		if !r.s.Now().Before(stop) {
			return
		}
		if r.tr != nil {
			r.tick++
			r.tr.begin(spanGenerator, r.tick)
		}
		due := r.s.Now()
		// One completion callback per tick: every action of the tick
		// shares its due time.
		done := func(_ any, err error) {
			if err != nil {
				return // counted as unfinished
			}
			r.completed++
			r.lat = append(r.lat, int64(r.s.Now().Sub(due)))
		}
		for i := 0; i < perTick; i++ {
			k := r.next % len(r.keys)
			r.next++
			r.submitted++
			r.store.Submit(r.keys[k], orderAction{Key: int32(k)}, done)
		}
		r.s.After(orderTick, pump)
		if r.tr != nil {
			r.tr.end()
		}
	}
	var before traceTotals
	waitFrom := 0
	if r.tr != nil {
		before = r.tr.snapshot()
		waitFrom = len(r.tr.syncWaitNs)
	}
	res.Host = measureHost(func() {
		r.s.After(0, pump)
		r.s.RunUntil(stop)
		res.InWindow = r.completed - done0
		for left := drain; left > 0 && r.completed < r.submitted; left -= 100 * time.Millisecond {
			r.s.RunFor(100 * time.Millisecond)
		}
	})
	if r.tr != nil {
		res.Trace = r.tr.snapshot().sub(before)
		res.Waits = r.tr.syncWaitNs[waitFrom:]
	}
	res.Submitted = r.submitted - sub0
	res.Unfinished = r.submitted - r.completed
	// Whatever is still outstanding is written off, so the next rung
	// starts its own accounting from zero.
	r.submitted = r.completed
	ms := sortedMs(r.lat)
	res.Mean = stats.Mean(ms)
	res.P50, _ = percentile(ms, 50)
	var ok bool
	res.P99, ok = percentile(ms, 99)
	res.Passed = rungPassed(res.P99, ok, res.Unfinished)
	return res
}

// verify is the correctness gate: every replica is ready, all agree on how
// many actions they applied and on the counter's value, and that value
// covers every acknowledged action.
func (r *orderRun) verify(p *pass) {
	r.s.RunFor(time.Second) // let followers apply what the leader already acknowledged
	grp := r.store.Group(0)
	var applied, value int64 = -1, -1
	for m := range grp.Members() {
		rep := grp.Replica(m)
		if rep == nil || !rep.Ready() {
			p.problemf("replica %d is not ready after the run", m)
			continue
		}
		a, v := rep.AppliedCount(), counterValue(rep.Machine())
		if applied < 0 {
			applied, value = a, v
		}
		if a != applied || v != value {
			p.problemf("replica %d applied %d (counter %d), replica 0 applied %d (counter %d)", m, a, v, applied, value)
		}
	}
	if value < r.completed {
		p.problemf("counter is %d but %d actions were acknowledged", value, r.completed)
	}
}

func counterValue(sm core.StateMachine) int64 {
	if t, ok := sm.(*tracedMachine); ok {
		sm = t.StateMachine
	}
	return sm.(*counterMachine).n
}

// layerMetrics turns the traced pass's totals into per-action numbers over
// the passing rungs, and the failing rung's cost on its own.
func (r *orderRun) layerMetrics(p *pass, seed uint64, passing, overload rungResult, waits []int64) {
	n := float64(max(passing.Submitted, 1))
	t := passing.Trace
	wall := float64(passing.Host.WallNs)
	self := func(k spanKind) float64 { return float64(t.SelfNs[k]) / n }
	p.Layer = map[string]float64{
		"paxos.msgs_per_action":      float64(t.Msgs) / n,
		"paxos.wal_syncs_per_action": float64(t.Syncs) / n,
		"paxos.records_per_sync":     float64(t.Records) / float64(max(t.Syncs, 1)),
		"paxos.timers_per_action":    float64(t.Timers) / n,
		"sim.events_per_action":      float64(t.events()) / n,
		"core.handle_host_ns":        self(spanHandle),
		"sim.send_host_ns":           self(spanSend),
		"sim.storage_host_ns":        self(spanStorage),
		"machine.apply_host_ns":      self(spanApply),
		"bench.generator_host_ns":    self(spanGenerator),
		// What no span covers: the event heap and the loop itself, plus
		// the generator, which is the bench's and not the system's.
		"sim.loop_host_ns":              (wall-float64(t.TopNs))/n + self(spanGenerator),
		"order.max_rate_per_s":          p.Model["max_rate_per_s"],
		"order.saturated_actions_per_s": p.Model["saturated_per_s"],
	}
	if overload.Submitted > 0 {
		p.Layer["sim.overload_host_ns_per_action"] = float64(overload.Host.WallNs) / float64(max(overload.Submitted-overload.Unfinished, 1))
	}
	ms := sortedMs(waits)
	p.Layer["sim.wal_sync_wait_p50_ms"], _ = percentile(ms, 50)
	p.Layer["sim.wal_sync_wait_p99_ms"], _ = percentile(ms, 99)
	sum := self(spanHandle) + self(spanSend) + self(spanStorage) + self(spanApply) + p.Layer["sim.loop_host_ns"]
	if d := sum/(wall/n) - 1; d > 0.05 || d < -0.05 {
		p.problemf("host self-times sum to %.1f ns per action, the traced pass took %.1f", sum, wall/n)
	}
	fmt.Printf("   traced: %d spans in total, %d kept; self times sum to %.1f of %.1f ns per action\n",
		sumCalls(t), len(r.tr.spans), sum, wall/n)
	if err := writeTrace(traceFile{
		Workload: "order_pipeline",
		Seed:     seed,
		Clocks:   "spans: host ns since the trace began; req is the generator tick",
		Spans:    r.tr.spans,
		Layer:    p.Layer,
	}); err != nil {
		p.problemf("%v", err)
	}
}

func sumCalls(t traceTotals) int64 {
	var n int64
	for _, c := range t.Calls {
		n += c
	}
	return n
}
