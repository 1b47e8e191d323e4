package exp

import (
	"fmt"
	"sync"
	"time"

	"robuststore/internal/metrics"
	"robuststore/internal/paxos"
	"robuststore/internal/rbe"
	"robuststore/internal/shard"
	"robuststore/internal/sim"
	"robuststore/internal/tpcw"
	"robuststore/internal/webtier"
)

// RunConfig describes one experiment run.
type RunConfig struct {
	Profile rbe.Profile
	Servers int // replication degree of each group
	Shards  int // independent Paxos groups; default 1 (the paper's deployment)
	StateMB int // initial state size: 300, 500 or 700

	// Fault is the run's fault schedule (faultload.go): one of the paper's
	// presets — NoFault, OneCrash, TwoCrashes, DelayedRecovery — or any
	// composed Faultload. The zero value is NoFault.
	Fault Faultload

	// Readers adds this many learner-backed read-only servers per group
	// (webtier.Config.Readers): they apply the log but never vote, and
	// the proxy rotates reads across voters + readers with per-session
	// read-your-writes fences. With none, reads rotate over the voters.
	Readers int

	Browsers int           // RBE population; default faultBrowsers
	Measure  time.Duration // measurement interval; default 540 s
	Seed     uint64
	NoFast   bool // disable Fast Paxos (ablation)
	NoBatch  bool // disable command batching (ablation)
	SeqRec   bool // disable parallel recovery (ablation)

	// CheckpointIntervalSec overrides Treplica's checkpoint period
	// (default: the paper's 60 s). The checkpoint experiments sweep it.
	CheckpointIntervalSec int

	// FullCheckpoints makes every checkpoint a full base instead of a
	// delta layer on the last one (the baseline side of
	// exp.CheckpointCurve; see webtier.Config.FullCheckpoints).
	FullCheckpoints bool

	// CrashAt overrides the faultload's first crash time (seconds from
	// run start) for shortened recovery-time runs; 0 keeps the paper's
	// times.
	CrashAt float64

	// RebalanceAtSec, when > 0, live-reshards the deployment at this
	// time on the paper's x-axis: one Paxos group of Servers replicas is
	// added and its share of the session slices migrates to it (the
	// epoch-versioned routing cutover). The run then reports Shards+1
	// per-group rows plus the migration window (RunResult.Migration).
	RebalanceAtSec float64

	// CrashMidMigration, with RebalanceAtSec set, kills group 0's first
	// rotation victim exactly when the migration enters its copy phase —
	// the handoff-under-fault scenario.
	CrashMidMigration bool

	// TxnRate, when > 0, drives cross-shard transactions (gift purchases
	// and inventory sweeps under 2PC) at this many per second of
	// measured time, alongside the RBE load, and audits their atomicity
	// at run end (RunResult.Txn). Zero schedules no driver.
	TxnRate float64
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Profile == 0 {
		c.Profile = rbe.Shopping
	}
	if c.Servers == 0 {
		c.Servers = 5
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.StateMB == 0 {
		c.StateMB = 500
	}
	if c.Browsers == 0 {
		c.Browsers = faultBrowsers
	}
	if c.Measure == 0 {
		c.Measure = measure
	}
	if c.Fault.Name == "" && len(c.Fault.Events) == 0 {
		c.Fault = NoFault
	}
	return c
}

// faultload resolves the run's effective fault schedule.
func (c RunConfig) faultload() Faultload {
	if c.CrashAt > 0 {
		return c.Fault.shifted(c.CrashAt)
	}
	return c.Fault
}

// RunResult aggregates everything the paper reports about one run.
type RunResult struct {
	Cfg RunConfig

	// Whole-measurement performance.
	AWIPS  float64
	CV     float64
	WIRTms float64

	// Series is the per-second WIPS histogram over the full run
	// (0..duration), as plotted in Figures 5, 7 and 8.
	Series []float64

	// Fault windows and dependability.
	CrashSec    []float64 // crash times, seconds from run start
	RecoverySec []float64 // recovery-complete times, seconds from run start
	RecoveryDur []float64 // per crashed replica, seconds (Figure 6)

	// Migration reports the live rebalance, when the run scheduled one
	// (RebalanceAtSec): the client-visible window and the moved share of
	// the hash space, alongside the dependability measures.
	Migration metrics.MigrationReport

	// FinalShards is the group count at run end (Shards+1 after a
	// rebalance); PerGroup has this many entries.
	FinalShards int

	Perf   metrics.Performability // first recovery window vs failure-free
	PerfR2 metrics.Performability // second window (delayed recovery only)

	Accuracy     float64
	Availability float64
	Autonomy     float64
	Faults       int
	Errors       int
	Total        int

	// FenceViolations counts fenced reads served below their fence —
	// zero unless the read-your-writes machinery regressed (see
	// webtier.Cluster.FenceViolations). The seeded fault suite asserts
	// it stays zero.
	FenceViolations int64

	// Txn is the cross-shard transaction atomicity audit, filled when
	// the run drove transactions (TxnRate > 0): issue/outcome counts and
	// the three violation classes — lost, duplicated, half-applied —
	// which must all stay zero under every faultload.
	Txn TxnAudit

	// Steady-state checkpoint I/O across all servers, measured from T0
	// (the initial population install is excluded) until the run's drain
	// tail ends — CheckpointWindowSec is that accounting window's length,
	// the denominator for write-rate derivations. The incremental
	// pipeline shrinks bytes-per-write from O(state) to O(writes since
	// the last checkpoint).
	CheckpointWrites    int64
	CheckpointBytes     int64
	CheckpointWindowSec float64

	// CrashedServers lists the flat server index behind each entry of
	// CrashSec, so sharded scenarios can attribute windows to groups.
	CrashedServers []int

	// FaultWindows lists the correlated (non-crash) fault windows the
	// faultload injected — network partitions and disk degradations — one
	// entry per affected group, on the run's x-axis. Nil for crash-only
	// faultloads.
	FaultWindows []metrics.FaultWindow

	// PerGroup carries each Paxos group's slice of the dependability
	// report: its client slice's throughput, accuracy, outage time and
	// recovery windows. One entry per shard (one for the paper's
	// single-group deployment, where it mirrors the aggregate fields).
	PerGroup []metrics.GroupReport

	InitialStateMB float64
	FinalStateMB   float64
	FastActive     bool
	Proxy          webtier.ProxyStats

	// Paxos sums the ordering path's counters over the engines alive at run
	// end (each counts from its own boot): decisions, fast-round collisions,
	// recoveries by cause, retries and catch-up requests.
	Paxos paxos.Stats
}

// --- Memoization ---------------------------------------------------------

// memo computes a value once per key, however many goroutines ask for it at
// once: the first runs compute, the others wait for its result. RunAll runs
// table entries side by side, and entries share runs and populations.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]func() V // each a sync.OnceValue
}

func (c *memo[K, V]) get(key K, compute func() V) V {
	c.mu.Lock()
	once := c.m[key]
	if once == nil {
		if c.m == nil {
			c.m = map[K]func() V{}
		}
		once = sync.OnceValue(compute)
		c.m[key] = once
	}
	c.mu.Unlock()
	return once()
}

// population is one populated bookstore, shared by every run of its state
// size — concurrent ones included, so after it is built it is only read:
// snap is its frozen capture, taken once, and each server's store is
// restored from that (copying the page directory and then, on a first write,
// the page). Cloning the prototype would freeze it again on every call,
// which writes its tables' owner tokens.
type population struct {
	proto *tpcw.Store
	snap  any
}

// store builds one server's store; it is a run's webtier.Config.Store.
func (p *population) store() *tpcw.Store {
	s := &tpcw.Store{}
	s.Restore(p.snap)
	return s
}

var popCache memo[int, *population] // by EBs

func populationFor(stateMB int) *population {
	ebs := ebsForStateMB(stateMB)
	return popCache.get(ebs, func() *population {
		proto := tpcw.Populate(tpcw.PopConfig{
			Items:     items,
			EBs:       ebs,
			Reduction: populationReduction,
			Seed:      populationSeed,
		})
		snap, _ := proto.Snapshot()
		return &population{proto: proto, snap: snap}
	})
}

var runCache memo[string, RunResult]

// Run executes one experiment (memoized per process: several tables share
// runs, exactly as in the paper where Figure 5 plots the Table 1 runs). The
// memo key is the defaulted config printed whole, so no field can be left
// out of it and no two values of one share a key.
func Run(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	return runCache.get(fmt.Sprintf("%+v", cfg), func() RunResult { return runOnce(cfg) })
}

// RunUncached executes one experiment bypassing the memo cache. The
// generative fault search (internal/exp/search) mutates its schedule
// every trial, so caching those runs would only grow the map without ever
// hitting — and a search probing a deliberately-broken build must never
// poison the cache the table formatters share.
func RunUncached(cfg RunConfig) RunResult {
	return runOnce(cfg.withDefaults())
}

// simSched adapts the simulator to the RBE Scheduler interface.
type simSched struct{ s *sim.Sim }

func (a simSched) Now() time.Time                   { return a.s.Now() }
func (a simSched) After(d time.Duration, fn func()) { a.s.After(d, fn) }

func runOnce(cfg RunConfig) RunResult {
	state := populationFor(cfg.StateMB)
	led := newLedger()

	var pcfg paxos.Config
	if cfg.NoBatch {
		pcfg.BatchDelay = time.Microsecond
		pcfg.MaxBatchCmds = 1
	}
	ckptIv := checkpointInterval
	if cfg.CheckpointIntervalSec > 0 {
		ckptIv = time.Duration(cfg.CheckpointIntervalSec) * time.Second
	}
	cluster := webtier.NewCluster(webtier.Config{
		Servers:            cfg.Servers,
		Shards:             cfg.Shards,
		Readers:            cfg.Readers,
		FastPaxos:          !cfg.NoFast,
		Store:              state.store,
		Cal:                webtier.DefaultCalibration(),
		CheckpointInterval: ckptIv,
		RetainInstances:    retainInstances,
		FullCheckpoints:    cfg.FullCheckpoints,
		Paxos:              pcfg,
		SequentialRecovery: cfg.SeqRec,
		Seed:               cfg.Seed*1e6 + uint64(cfg.Servers)*1000 + uint64(cfg.Profile),
		Net:                expNet,
		Disk:               expDisk,
		OnRecovered:        led.recovered,
	})
	led.cluster = cluster
	s := cluster.Sim()
	cluster.Start()

	// Setup phase: elect a leader, install the initial population
	// checkpoint on every disk (the paper populates before measuring).
	s.RunFor(2 * time.Second)
	ckptDone := false
	cluster.CheckpointAll(func() { ckptDone = true })
	deadline := s.Now().Add(60 * time.Second)
	for !ckptDone && s.Now().Before(deadline) {
		s.RunFor(time.Second)
	}

	// T0: the run's time origin (start of ramp-up; the paper's x axis).
	// Checkpoint I/O before this point (the population install) is
	// excluded from the steady-state accounting.
	t0 := s.Now()
	led.t0 = t0
	ckptW0, ckptB0 := cluster.CheckpointIO()
	total := rampUp + cfg.Measure + rampDown
	recGroups := cfg.Shards
	if cfg.RebalanceAtSec > 0 {
		recGroups++ // the group the rebalance adds gets its own bucket
	}
	recorder := metrics.NewShardedRecorder(t0, time.Second, recGroups, cluster.GroupOf)
	pop := rbe.New(rbe.Config{
		Browsers:   cfg.Browsers,
		Profile:    cfg.Profile,
		ThinkTime:  thinkTime,
		Population: state.proto.Info(),
		Seed:       cfg.Seed*31 + uint64(cfg.Profile),
		Recorder:   recorder,
		Stop:       t0.Add(total),
	}, simSched{s: s}, cluster.Frontend())
	pop.Start()

	// Faultload: the run's schedule, scaled into the measurement interval
	// if it was shortened.
	at := func(sec float64) time.Time { return t0.Add(RunOffset(cfg.Measure, sec)) }
	for _, ev := range cfg.faultload().resolve(cfg) {
		led.schedule(ev, at(ev.atSec))
	}

	// Live rebalance: one group joins at the scheduled time and its
	// session slices migrate to it. A mid-migration crash (the
	// handoff-under-fault scenario) fires exactly at the copy-phase
	// transition, deterministically inside the window.
	if cfg.RebalanceAtSec > 0 {
		s.At(at(cfg.RebalanceAtSec), func() {
			cluster.Rebalance(webtier.RebalanceOptions{
				OnPhase: func(phase string) {
					if phase == shard.PhaseCopy && cfg.CrashMidMigration {
						victim := cluster.Voters(0)[pickVictimsInGroup(cfg, 0)[0]]
						led.crash(victim, 0, s.Now(), true)
						cluster.Crash(victim)
					}
				},
			})
		})
	}

	// Cross-shard transaction driver: gift purchases and inventory
	// sweeps at TxnRate per second of measured time, audited for
	// atomicity after the drain tail; scheduled only when TxnRate > 0.
	var txnDrv *txnDriver
	if cfg.TxnRate > 0 {
		txnDrv = startTxnDriver(cfg, cluster, s, t0, state.proto.Info())
	}

	// Run to completion plus a drain tail for late recoveries.
	s.RunUntil(t0.Add(total + 90*time.Second))

	res := collect(cfg, cluster, recorder, led, total)
	w, b := cluster.CheckpointIO()
	res.CheckpointWrites = w - ckptW0
	res.CheckpointBytes = b - ckptB0
	res.CheckpointWindowSec = s.Now().Sub(t0).Seconds()
	if txnDrv != nil {
		res.Txn = txnDrv.audit()
	}
	return res
}

// RunOffset maps a second on the paper's x-axis (ramp-up included) to its
// offset from the start of a run whose measurement interval is interval:
// ramp-up is as long either way and the spacing after it scales with the
// interval. Events are scheduled by it, so whatever reads a schedule back
// — Table 5's second window, the hunt's oracles — maps through it too.
func RunOffset(interval time.Duration, paperSec float64) time.Duration {
	scale := float64(interval) / float64(measure)
	return rampUp + time.Duration(scale*(paperSec-rampUp.Seconds())*float64(time.Second))
}

// pickVictimsInGroup is the per-group victim rotation ("chosen at random",
// §5.5, but deterministically): member indices within group g, distinct
// where the group size allows it.
func pickVictimsInGroup(cfg RunConfig, g int) []int {
	if cfg.Servers == 1 {
		// Degenerate group: its only member is every victim (the sharded
		// faultloads sweep group size down to 1).
		return []int{0, 0}
	}
	a := int(cfg.Seed+uint64(cfg.Profile)*3+uint64(g)*7) % cfg.Servers
	b := (a + 1 + int(cfg.Seed)%(cfg.Servers-1)) % cfg.Servers
	return []int{a, b}
}

// collect derives the paper's measures from a finished run.
func collect(cfg RunConfig, cluster *webtier.Cluster, srec *metrics.ShardedRecorder,
	led *ledger, total time.Duration) RunResult {

	rec := srec.Aggregate()
	sec := led.sec
	mStart := int(rampUp.Seconds())
	mEnd := int((rampUp + cfg.Measure).Seconds())

	res := RunResult{
		Cfg:    cfg,
		AWIPS:  rec.AWIPS(mStart, mEnd),
		CV:     rec.CV(mStart, mEnd),
		WIRTms: rec.MeanLatency(mStart, mEnd) * 1000,
		Series: rec.Series(0, int(total.Seconds())),
		Total:  rec.Total(),
		Errors: rec.TotalErrors(),
	}
	res.Accuracy = rec.Accuracy()
	res.Proxy = cluster.ProxyStats()
	res.FaultWindows = led.windows
	res.Availability = metrics.Availability(cluster.Downtime(), total)
	res.Autonomy = metrics.ComputeAutonomy(cluster.Interventions(), cluster.Faults())
	res.Faults = cluster.Faults()
	res.FenceViolations = cluster.FenceViolations()

	for _, c := range led.crashes {
		res.CrashSec = append(res.CrashSec, sec(c.at))
		res.CrashedServers = append(res.CrashedServers, c.server)
		if !c.recovered.IsZero() {
			res.RecoverySec = append(res.RecoverySec, sec(c.recovered))
			res.RecoveryDur = append(res.RecoveryDur, c.recovered.Sub(c.at).Seconds())
		}
	}

	// Performability (§5.1) of a scope — group g's recorder, or the
	// deployment's with g = -1: the interval the ledger says it spent under
	// fault against the failure-free rest of the measurement.
	perf := func(rec *metrics.Recorder, g int) (p metrics.Performability) {
		if w, ok := led.window(g, mStart, mEnd); ok {
			ff := []metrics.Window{{From: mStart, To: w.From}}
			if w.To+1 < mEnd {
				ff = append(ff, metrics.Window{From: w.To + 1, To: mEnd})
			}
			p = rec.ComputePerformability(ff, w)
		}
		return p
	}
	if w, ok := led.window(-1, mStart, mEnd); ok && led.autonomous &&
		!led.operatorAt.IsZero() && len(res.RecoverySec) >= 2 {
		// §5.6's shape, an autonomous recovery beside the operator's delayed
		// one, reports two windows against the time before the crash
		// (Table 5): R1 to the first recovery, R2 from when the operator
		// acted to the second. An all-manual schedule like a whole-group
		// outage keeps the single window.
		ff := []metrics.Window{{From: mStart, To: w.From}}
		res.Perf = rec.ComputePerformability(ff,
			metrics.Window{From: w.From, To: int(res.RecoverySec[0])})
		res.PerfR2 = rec.ComputePerformability(ff,
			metrics.Window{From: int(sec(led.operatorAt)), To: min(int(res.RecoverySec[1]), mEnd)})
	} else {
		res.Perf = perf(rec, -1)
	}

	// The live rebalance's report: migration window on the x-axis plus
	// the moved hash-space share.
	res.FinalShards = cluster.Shards()
	if mst := cluster.Migration(); !mst.StartedAt.IsZero() {
		res.Migration = metrics.MigrationReport{
			Happened:    true,
			NewGroup:    mst.NewGroup,
			MovedSlices: mst.MovedSlices,
			TotalSlices: mst.TotalSlices,
			StartSec:    sec(mst.StartedAt),
		}
		if !mst.CutoverAt.IsZero() {
			res.Migration.CutoverSec = sec(mst.CutoverAt)
			res.Migration.WindowSec = mst.Window().Seconds()
		}
	}

	// Per-group dependability: each Paxos group's client slice, outage
	// time and recovery windows (the sharded generalization of the
	// availability/performability report; one mirror entry at Shards=1,
	// one extra entry for a group a rebalance added).
	gdt := cluster.GroupDowntimes()
	res.PerGroup = make([]metrics.GroupReport, res.FinalShards)
	for g := 0; g < res.FinalShards; g++ {
		grec := srec.Group(g)
		gr := metrics.GroupReport{
			Group:        g,
			AWIPS:        grec.AWIPS(mStart, mEnd),
			Downtime:     gdt[g],
			Availability: metrics.Availability(gdt[g], total),
		}
		if g < cfg.Shards {
			// Read-path staleness accounting (zero on rebalance-added
			// groups: a rebalance excludes readers). The rate is over the
			// full run window — readers serve through ramp-up and drain too.
			served, fw, ss := cluster.ReadStats(g)
			gr.ReadsServed = served
			gr.ReadsPerSec = float64(served) / total.Seconds()
			gr.FenceWaits = fw
			gr.StaleServes = ss
			// Cross-shard transaction accounting (zero when the run
			// drove none): decision outcomes this group's log ordered
			// and the time its prepared branches blocked conflict keys.
			tc, ta, tb := cluster.TxnStats(g)
			gr.TxnCommits = tc
			gr.TxnAborts = ta
			gr.TxnBlockedSec = tb.Seconds()
		}
		// Group accuracy folds read-path quality in: fence waits and stale
		// serves discount it alongside hard errors (bit-identical to plain
		// Accuracy() when both staleness counters are zero).
		gr.Accuracy = metrics.WeightedGroupAccuracy(grec.Total(), grec.TotalErrors(),
			gr.FenceWaits, gr.StaleServes)
		led.tally(&gr, total.Seconds())
		gr.Perf = perf(grec, g)
		res.PerGroup[g] = gr
	}

	// State sizes. Every server starts from the full population and grows
	// by its own group's writes, so the final size is the largest live
	// replica state across groups (with one group, exactly the paper's
	// single-store measure).
	res.InitialStateMB = float64(populationFor(cfg.StateMB).proto.NominalBytes()) / 1e6
	for g := 0; g < res.FinalShards; g++ {
		for _, i := range cluster.Voters(g) {
			if st := cluster.Store(i); st != nil {
				if mb := float64(st.NominalBytes()) / 1e6; mb > res.FinalStateMB {
					res.FinalStateMB = mb
				}
				break
			}
		}
	}
	for i := 0; i < cluster.TotalServers(); i++ {
		if r := cluster.Replica(i); r != nil && r.Engine() != nil {
			res.FastActive = res.FastActive || r.Engine().FastActive()
			res.Paxos.Add(r.Engine().Stats())
		}
	}
	return res
}
