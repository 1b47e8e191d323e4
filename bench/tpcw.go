package main

import (
	"fmt"
	"math/rand"
	"time"

	"robuststore/internal/rbe"
	"robuststore/internal/sim"
	"robuststore/internal/stats"
	"robuststore/internal/tpcw"
	"robuststore/internal/webtier"
)

// The two web-tier workloads share one harness: the paper's deployment
// (webtier.Cluster on the simulator, TPC-W browsers in a closed loop)
// under the paper's hardware calibration.

// The paper calibration, copied from internal/exp/calibration.go because
// those constants are unexported; TestCalibrationParity fails if a copy
// drifts from the original.
var (
	paperDisk = sim.DiskConfig{
		SyncLatency:    25 * time.Millisecond,
		SyncJitter:     1.0,
		WriteBandwidth: 45e6,
		ReadBandwidth:  12e6,
	}
	paperNet = sim.NetConfig{
		BaseLatency:  120 * time.Microsecond,
		Bandwidth:    125e6,
		SendOverhead: 150 * time.Microsecond,
		Jitter:       0.5,
	}
	paperPopulation = tpcw.PopConfig{Items: 10000, EBs: 50, Reduction: 4, Seed: 7} // 500 MB state
)

// afterRecovery is how long a crash workload keeps measuring once the
// victim has recovered.
const afterRecovery = 5 * time.Second

// restartAfter is how long a crashed server stays down: the watchdog's
// interval, its worst case. Left to the watchdog the delay is anything from
// 0 to 1 s, and at 0 (crash and watchdog tick in one virtual instant) the
// reborn leader reclaims its ballot before any follower has missed it, while
// it is still loading its checkpoint; the group then orders nothing for the
// rest of the run (README.md, sizing facts).
const restartAfter = time.Second

const (
	paperCheckpointInterval = 60 * time.Second
	paperRetainInstances    = 400000
	paperThinkTime          = time.Second
)

var tpcwCrash = workload{
	Name:  "tpcw_crash",
	Why:   "the paper's one-crash experiment with the leader as victim: webtier proxy/probe/redispatch, tpcw queries and applies, checkpoint load, suffix recovery and failover; little of it is the ordering pipeline",
	Load:  "closed loop, 1000 browsers, 1 s exponential think time, Shopping mix (about 18 % writes), 5 servers x 1 group, leader crashed 15 s into the measured interval",
	Sim:   true,
	Gated: true,
	Run: func(o options, traced bool) (*pass, error) {
		c := tpcwConfig{
			Name: "tpcw_crash", Servers: 5, Shards: 1, Profile: rbe.Shopping, Browsers: 1000,
			Ramp: 10 * time.Second, Measure: 150 * time.Second, CrashAfter: 15 * time.Second,
		}
		if o.Quick {
			c.Browsers, c.Ramp, c.Measure, c.CrashAfter = 100, 2*time.Second, 40*time.Second, 3*time.Second
		}
		return runTPCW(c, o, traced)
	},
}

var tpcwShardedTxn = workload{
	Name:  "tpcw_sharded_txn",
	Why:   "the same web tier used differently: write-heavy, sharded, learner readers and 2PC; routing table, fenced reads, admission control and both 2PC record paths run hot here and nowhere else",
	Load:  "closed loop, 1000 browsers, 1 s think time, Ordering mix (about 49 % writes), 4 groups x (3 voters + 1 reader); beside it an open loop of 10 cross-shard transactions/s, no faults",
	Sim:   true,
	Gated: true,
	Run: func(o options, traced bool) (*pass, error) {
		c := tpcwConfig{
			Name: "tpcw_sharded_txn", Servers: 3, Shards: 4, Readers: 1, Profile: rbe.Ordering, Browsers: 1000,
			Ramp: 5 * time.Second, Measure: 45 * time.Second, TxnRate: 10,
		}
		if o.Quick {
			c.Browsers, c.Ramp, c.Measure = 150, 2*time.Second, 10*time.Second
		}
		return runTPCW(c, o, traced)
	},
}

// tpcwConfig describes one web-tier pass.
type tpcwConfig struct {
	Name                     string
	Servers, Shards, Readers int
	Profile                  rbe.Profile
	Browsers                 int
	Ramp, Measure            time.Duration
	CrashAfter               time.Duration // into the measured interval; 0 = no fault
	TxnRate                  float64       // cross-shard transactions per measured second
}

// opClass splits latencies the way the layers see them.
type opClass int

const (
	opRead opClass = iota
	opWrite
	opTxn
	nOpClasses
)

func classOf(k rbe.Interaction) opClass {
	switch {
	case k == rbe.GiftPurchase || k == rbe.StockSweep:
		return opTxn
	case k.IsWrite():
		return opWrite
	default:
		return opRead
	}
}

// client is the browser-side view of the web tier: an rbe.Frontend around
// the cluster's that times every interaction on the virtual clock and keeps
// the counts the report needs. It retries a failed interaction once, as a
// user pressing reload: a write in flight on a server that is killed is
// reset by design (the paper counts it against accuracy); here the reset
// costs the interaction its latency, and only a second failure counts as
// failed. A buy-confirm cannot be repeated safely — the first attempt may
// have consumed the cart — so the crash waits until none is in flight.
type client struct {
	s        *sim.Sim
	inner    rbe.Frontend
	groupOf  func(int64) int
	from, to time.Time // the measured interval; interactions belong to it by issue time

	attempted, succeeded, retried int64
	open                          int64 // measured interactions in flight
	doneInside                    int64 // successes that completed inside [from, to): the paper's WIPS count
	buying                        int   // buy-confirms in flight: the one interaction a retry cannot repeat safely
	perGroup                      []int64
	lat                           [nOpClasses][]int64 // virtual ns, successful interactions

	// Longest interval without a successful write reply inside
	// [gapFrom, gapTo], tracked online.
	gapFrom, gapTo time.Time
	lastWrite      time.Time
	maxGap         time.Duration

	requests []request // traced pass: a bounded sample for the trace file
	keep     bool
}

func (c *client) Do(req rbe.Request, done func(rbe.Response)) {
	start := c.s.Now()
	measured := !start.Before(c.from) && start.Before(c.to)
	if measured {
		c.attempted++
		c.open++
		c.perGroup[c.groupOf(req.Client)]++
	}
	if req.Kind == rbe.BuyConfirm {
		c.buying++
	}
	tries := 0
	var answer func(rbe.Response)
	answer = func(resp rbe.Response) {
		tries++
		if resp.Err && tries == 1 {
			c.retried++
			c.inner.Do(req, answer)
			return
		}
		now := c.s.Now()
		if measured {
			c.open--
		}
		if req.Kind == rbe.BuyConfirm {
			c.buying--
		}
		if !resp.Err && !now.Before(c.from) && now.Before(c.to) {
			c.doneInside++
		}
		if measured && !resp.Err {
			c.succeeded++
			cl := classOf(req.Kind)
			c.lat[cl] = append(c.lat[cl], int64(now.Sub(start)))
		}
		if !resp.Err && req.Kind.IsWrite() {
			c.wrote(now)
		}
		if c.keep && measured && len(c.requests) < maxSpans {
			c.requests = append(c.requests, request{
				ID: req.Client, Kind: req.Kind.String(),
				Start: start.UnixNano(), End: now.UnixNano(), Err: resp.Err,
			})
		}
		done(resp)
	}
	c.inner.Do(req, answer)
}

// wrote notes a successful write reply at virtual time t.
func (c *client) wrote(t time.Time) {
	if c.gapFrom.IsZero() || t.Before(c.gapFrom) {
		return
	}
	prev := c.lastWrite
	if prev.Before(c.gapFrom) {
		prev = c.gapFrom
	}
	if t.After(c.gapTo) {
		t = c.gapTo
	}
	if g := t.Sub(prev); g > c.maxGap {
		c.maxGap = g
	}
	c.lastWrite = t
}

// txnRecord is one driven cross-shard transaction, kept for the audit.
type txnRecord struct {
	gift    bool
	tag     string
	group   int                   // gift: the recipient's home group
	items   map[int][]tpcw.ItemID // sweep: swept items by home group
	replied bool
	ok      bool
}

// tpcwRun is the state of one pass.
type tpcwRun struct {
	cfg     tpcwConfig
	cluster *webtier.Cluster
	s       *sim.Sim
	cl      *client
	info    tpcw.PopulationInfo
	txns    []*txnRecord

	victim      int
	crashedAt   time.Time
	recoveredAt time.Time
}

func runTPCW(cfg tpcwConfig, o options, traced bool) (*pass, error) {
	p := &pass{Model: map[string]float64{}}
	r := &tpcwRun{cfg: cfg, victim: -1}

	// Set-up: populate, boot, elect, install the initial checkpoint on
	// every disk, start the browsers and let them ramp up.
	setup := startSetup()
	population := paperPopulation
	if o.Quick {
		population.EBs = 5 // 50 MB: a tenth of the checkpoint to load
	}
	proto := tpcw.Populate(population)
	r.info = proto.Info()
	r.cluster = webtier.NewCluster(webtier.Config{
		Servers:            cfg.Servers,
		Shards:             cfg.Shards,
		Readers:            cfg.Readers,
		FastPaxos:          true,
		Store:              proto.Clone,
		Cal:                webtier.DefaultCalibration(),
		CheckpointInterval: paperCheckpointInterval,
		RetainInstances:    paperRetainInstances,
		// The seeds derive from the run's as internal/exp derives them.
		Seed: o.Seed*1e6 + uint64(cfg.Servers)*1000 + uint64(cfg.Profile),
		Net:  paperNet,
		Disk: paperDisk,
		OnRecovered: func(server int, at time.Time) {
			if server == r.victim && r.recoveredAt.IsZero() {
				r.recoveredAt = at
			}
		},
	})
	r.s = r.cluster.Sim()
	r.cluster.Start()
	r.s.RunFor(2 * time.Second)
	installed := false
	r.cluster.CheckpointAll(func() { installed = true })
	for deadline := r.s.Now().Add(60 * time.Second); !installed && r.s.Now().Before(deadline); {
		r.s.RunFor(time.Second)
	}
	if !installed {
		return nil, fmt.Errorf("%s: the initial checkpoint did not complete", cfg.Name)
	}
	origin := r.s.Now()
	from, to := origin.Add(cfg.Ramp), origin.Add(cfg.Ramp+cfg.Measure)
	expect := int(float64(cfg.Browsers) * (cfg.Measure.Seconds() + 10) / paperThinkTime.Seconds())
	r.cl = &client{
		s: r.s, inner: r.cluster.Frontend(), groupOf: r.cluster.GroupOf,
		from: from, to: to, perGroup: make([]int64, cfg.Shards), keep: traced,
	}
	// Sample storage is sized up front so recording a latency never
	// allocates inside the timed section.
	for cl := range r.cl.lat {
		r.cl.lat[cl] = make([]int64, 0, expect)
	}
	rbe.New(rbe.Config{
		Browsers:   cfg.Browsers,
		Profile:    cfg.Profile,
		ThinkTime:  paperThinkTime,
		Population: r.info,
		Seed:       o.Seed*31 + uint64(cfg.Profile),
		Stop:       to,
	}, r.s, r.cl).Start()
	r.s.RunUntil(from)
	ckptW0, ckptB0 := r.cluster.CheckpointIO()
	setup.stop(p)

	if cfg.CrashAfter > 0 {
		var crash func()
		crash = func() {
			if r.cl.buying > 0 {
				r.s.After(time.Millisecond, crash)
				return
			}
			r.victim = r.cluster.LeaderOf(0)
			if r.victim < 0 {
				r.victim = 0
			}
			r.crashedAt = r.s.Now()
			r.cl.gapFrom, r.cl.gapTo = r.crashedAt, r.crashedAt.Add(60*time.Second)
			// The restart comes restartAfter later, not from the cluster's
			// watchdog: the watchdog ticks on whole virtual seconds, so its
			// delay depends on where in its period the crash lands.
			r.cluster.SetAutoRestart(r.victim, false)
			r.cluster.Crash(r.victim)
			r.s.After(restartAfter, func() { r.cluster.ManualRecover(r.victim) })
		}
		r.s.At(from.Add(cfg.CrashAfter), crash)
	}
	if cfg.TxnRate > 0 {
		r.scheduleTxns(o.Seed, from)
	}
	var probe *prober
	if traced {
		probe = startProber(r)
	}

	// Timed section: the measured interval. With a crash it ends a few
	// virtual seconds after the victim has recovered (cfg.Measure caps it):
	// what follows recovery is steady state again, which the other
	// workloads measure.
	p.Host = measureHost(func() {
		for r.s.Now().Before(to) {
			r.s.RunFor(time.Second)
			if !r.recoveredAt.IsZero() && !r.s.Now().Before(r.recoveredAt.Add(afterRecovery)) {
				break
			}
		}
	})
	to = r.s.Now()
	r.cl.to = to
	measured := to.Sub(from)

	// Drain: the browsers keep going, unmeasured; let the measured
	// interactions still in flight finish.
	for deadline := to.Add(30 * time.Second); r.cl.open > 0 && r.s.Now().Before(deadline); {
		r.s.RunFor(100 * time.Millisecond)
	}
	r.s.RunFor(2 * time.Second) // let every replica apply what its group has acknowledged

	c := r.cl
	p.Attempted, p.Actions, p.Failed = c.attempted, c.succeeded, c.attempted-c.succeeded
	all := make([]int64, 0, c.succeeded)
	for _, l := range c.lat {
		all = append(all, l...)
	}
	ms := sortedMs(all)
	p.Model["actions_per_s"] = float64(c.succeeded) / measured.Seconds()
	p.Model["mean_ms"] = stats.Mean(ms)
	var ok bool
	if p.Model["p99_ms"], ok = percentile(ms, 99); !ok {
		p.problemf("too few samples (%d) to report p99", len(ms))
	}
	p.Model["awips"] = float64(c.doneInside) / measured.Seconds()
	p.Model["retried"] = float64(c.retried)
	if cfg.CrashAfter > 0 {
		c.wrote(c.gapTo) // close the last gap at the window's end
		p.Model["failover_gap_ms"] = float64(c.maxGap) / 1e6
		if r.recoveredAt.IsZero() {
			p.problemf("server %d had not recovered after %v", r.victim, cfg.Measure)
		} else {
			p.Model["recovery_s"] = r.recoveredAt.Sub(r.crashedAt).Seconds()
		}
	}
	if cfg.TxnRate > 0 {
		tms := sortedMs(c.lat[opTxn])
		p.Model["txn_p50_ms"], _ = percentile(tms, 50)
		p.Model["txn_p90_ms"], _ = percentile(tms, 90) // a few hundred samples: p99 would have fewer than ten beyond it
	}
	if !o.Quiet {
		fmt.Printf("   %s: %d servers x %d groups + %d readers/group, %s mix, %d browsers; disk sync %v jitter %.1f write %.0f MB/s read %.0f MB/s; net %v + %v send, jitter %.1f; checkpoint every %v\n",
			cfg.Name, cfg.Servers, cfg.Shards, cfg.Readers, cfg.Profile, cfg.Browsers,
			paperDisk.SyncLatency, paperDisk.SyncJitter, paperDisk.WriteBandwidth/1e6, paperDisk.ReadBandwidth/1e6,
			paperNet.BaseLatency, paperNet.SendOverhead, paperNet.Jitter, paperCheckpointInterval)
	}
	fmt.Printf("   %s: measured %v after %v ramp: %d interactions, %d retried once, %d failed; samples read=%d write=%d txn=%d\n",
		cfg.Name, measured, cfg.Ramp, c.attempted, c.retried, p.Failed, len(c.lat[opRead]), len(c.lat[opWrite]), len(c.lat[opTxn]))

	r.verify(p, o.Seed)
	if traced {
		r.layerMetrics(p, o.Seed, probe, ckptW0, ckptB0)
	}
	return p, nil
}

// scheduleTxns drives the open-loop transaction schedule exactly as
// internal/exp's driver does: TxnRate per measured second, alternating
// gift purchases (recipient picked off the buyer's group) and stock sweeps
// (disjoint 4-item blocks), sessions off the browsers' client-id space.
func (r *tpcwRun) scheduleTxns(seed uint64, from time.Time) {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + 271))
	n := int(r.cfg.TxnRate * r.cfg.Measure.Seconds())
	interval := r.cfg.Measure / time.Duration(n)
	for k := 0; k < n; k++ {
		k := k
		r.s.At(from.Add(time.Duration(k)*interval), func() { r.issueTxn(k, rng) })
	}
}

func (r *tpcwRun) issueTxn(k int, rng *rand.Rand) {
	c, info := r.cluster, r.info
	session := int64(1_000_000 + k)
	if k%2 == 0 {
		home := c.GroupOf(session)
		peer := tpcw.CustomerID(1 + rng.Intn(info.Customers))
		for try := 0; try < 64 && c.CustomerGroup(peer) == home; try++ {
			peer = tpcw.CustomerID(1 + rng.Intn(info.Customers))
		}
		rec := &txnRecord{gift: true, tag: fmt.Sprintf("txn-gift-%d", k), group: c.CustomerGroup(peer)}
		r.txns = append(r.txns, rec)
		r.cl.Do(rbe.Request{
			Client:   session,
			Kind:     rbe.GiftPurchase,
			Customer: tpcw.CustomerID(1 + rng.Intn(info.Customers)),
			Peer:     peer,
			Item:     tpcw.ItemID(1 + rng.Intn(info.Items)),
			Tag:      rec.tag,
		}, func(resp rbe.Response) { rec.replied, rec.ok = true, !resp.Err })
		return
	}
	base := 1 + (k/2*4)%(info.Items-3)
	rec := &txnRecord{tag: fmt.Sprintf("txn-sweep-%d", k), items: map[int][]tpcw.ItemID{}}
	items := make([]tpcw.ItemID, 4)
	for i := range items {
		items[i] = tpcw.ItemID(base + i)
		g := c.ItemGroup(items[i])
		rec.items[g] = append(rec.items[g], items[i])
	}
	r.txns = append(r.txns, rec)
	r.cl.Do(rbe.Request{
		Client: session,
		Kind:   rbe.StockSweep,
		Items:  items,
		Cost:   1e5 + float64(k),
		Tag:    rec.tag,
	}, func(resp rbe.Response) { rec.replied, rec.ok = true, !resp.Err })
}

// verify is the correctness gate of the web-tier workloads: every live
// server's store is internally consistent, no fenced read was served below
// its fence, and a seeded sample of the driven transactions is atomic.
func (r *tpcwRun) verify(p *pass, seed uint64) {
	live := 0
	for i := 0; i < r.cluster.TotalServers(); i++ {
		st := r.cluster.Store(i)
		if st == nil {
			continue
		}
		live++
		if bad := st.VerifyConsistency(); len(bad) > 0 {
			p.problemf("server %d store inconsistent: %v", i, bad)
		}
	}
	if live != r.cluster.TotalServers() {
		p.problemf("%d of %d servers are up after the run", live, r.cluster.TotalServers())
	}
	if v := r.cluster.FenceViolations(); v != 0 {
		p.problemf("%d fenced reads were served below their fence", v)
	}
	if len(r.txns) == 0 {
		return
	}
	// The full audit is O(transactions x orders); a sample of 64, off the
	// timed path, is enough to catch a broken commit protocol.
	rng := rand.New(rand.NewSource(int64(seed) + 64))
	for _, k := range rng.Perm(len(r.txns))[:min(64, len(r.txns))] {
		r.auditTxn(p, r.txns[k])
	}
}

// groupStore returns the store of group g's first live voter. One replica
// stands for its group: a branch is one ordered action, applied by every
// replica of the group or by none, and scanning orders is what makes the
// audit expensive.
func (r *tpcwRun) groupStore(g int) *tpcw.Store {
	for i := g * r.cfg.Servers; i < (g+1)*r.cfg.Servers; i++ {
		if st := r.cluster.Store(i); st != nil {
			return st
		}
	}
	return nil
}

// auditTxn checks one transaction for atomicity. An OK reply is a commit
// promise; an error reply promises nothing, but even then the effects must
// be everywhere or nowhere, and never twice.
func (r *tpcwRun) auditTxn(p *pass, t *txnRecord) {
	if !t.replied {
		p.problemf("transaction %s was never answered", t.tag)
		return
	}
	if t.gift {
		on, off := 0, 0
		for g := 0; g < r.cfg.Shards; g++ {
			n := r.groupStore(g).OrdersTagged(t.tag)
			if g == t.group {
				on = n
			} else {
				off += n
			}
		}
		switch {
		case on+off > 1:
			p.problemf("transaction %s applied %d times", t.tag, on+off)
		case off > 0:
			p.problemf("transaction %s landed on the wrong group", t.tag)
		case t.ok && on == 0:
			p.problemf("transaction %s was acknowledged but left no order", t.tag)
		}
		return
	}
	applied, missing := 0, 0
	for g, items := range t.items {
		swept := true
		for _, id := range items {
			if it, ok := r.groupStore(g).GetBook(id); !ok || it.SweptTag != t.tag {
				swept = false
			}
		}
		if swept {
			applied++
		} else {
			missing++
		}
	}
	switch {
	case applied > 0 && missing > 0:
		p.problemf("transaction %s applied on %d groups and not on %d", t.tag, applied, missing)
	case t.ok && applied == 0:
		p.problemf("transaction %s was acknowledged but repriced nothing", t.tag)
	}
}
