package exp

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"robuststore/internal/rbe"
)

// This file is the one list of experiments. Each entry names an
// experiment, says what it reproduces, and runs it at one of two sizes —
// the paper's, or a short one that keeps the regime the experiment is
// about at a fraction of the cost — laying out its report as cells that
// render.go writes. cmd/experiment
// is flag parsing plus a loop over this table, and
// testdata/golden/all-short.txt holds every byte RunAll prints at the
// short size under DefaultParams (TestGoldenAllShort compares them), so a
// model move shows up as a reviewed diff of that file. Regenerate it with
//
//	go run ./cmd/experiment -run all -short > internal/exp/testdata/golden/all-short.txt

// Params are cmd/experiment's flags; an experiment derives its whole
// configuration from them.
type Params struct {
	Seed    uint64
	Shards  int         // Paxos groups of the sharded experiments
	Servers int         // replication degree of one-crash's histogram run
	Profile rbe.Profile // workload of the same
	Short   bool        // the short size instead of the paper's
}

// DefaultParams are cmd/experiment's flag defaults.
var DefaultParams = Params{Seed: 1, Shards: 2, Servers: 5, Profile: rbe.Shopping}

// Experiment is one entry of the table. Run's error is the experiment's
// own verdict — an atomicity violation, a hunt finding.
type Experiment struct {
	Name string
	Doc  string
	Run  func(p Params, w io.Writer) error
}

// RunAll runs every experiment of the table and writes their reports in
// table order, each under a header naming it, up to and including the first
// that fails. The entries are independent deterministic simulations (the runs
// they share are memoised, see Run), so they run side by side on up to
// GOMAXPROCS workers, each into its own buffer, and the bytes written are
// those of running them one after another.
func RunAll(p Params, w io.Writer) error { return runEntries(Experiments, p, w) }

func runEntries(entries []Experiment, p Params, w io.Writer) error {
	type section struct {
		out  bytes.Buffer
		err  error
		done chan struct{}
	}
	secs := make([]section, len(entries))
	for i := range secs {
		secs[i].done = make(chan struct{})
	}
	var next atomic.Int64 // the next entry to start
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(entries)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(secs) {
					return
				}
				// Entries start in table order, so nothing after one that
				// failed will be printed: do not start it.
				sec := &secs[i]
				if !failed.Load() {
					fmt.Fprintf(&sec.out, "\n== %s ==\n", entries[i].Name)
					sec.err = entries[i].Run(p, &sec.out)
					if sec.err != nil {
						failed.Store(true)
					}
				}
				close(sec.done)
			}
		}()
	}
	defer wg.Wait()
	for i := range secs {
		<-secs[i].done
		if _, err := w.Write(secs[i].out.Bytes()); err != nil {
			failed.Store(true)
			return err
		}
		if secs[i].err != nil {
			return secs[i].err
		}
	}
	return nil
}

// sweepMeasure is the measurement interval of the failure-free sweeps at
// their full size: AWIPS is stable (browsing CV ≈ 0.01), so 150 s gives
// the same means as the paper's 540 s at a fraction of the simulation
// cost.
const sweepMeasure = 150 * time.Second

// readScaleBrowsers drives the read scale-out sweep past the biggest
// deployment's read capacity, so the measured rate is capacity, not
// offered load.
const readScaleBrowsers = 3000

// scale sizes a replication-degree sweep: the paper's 4–12 servers (18
// nodes minus 5 clients and 1 proxy) over 150 s, or 4 and 8 replicas over
// 30 s — under the same population either way, so the short speedup still
// saturates (2600 browsers no longer saturate the browsing mix at 12
// replicas, and a 12-replica run costs three times the host time of an
// 8-replica one).
func (p Params) scale(stateMB, browsers int) (RunConfig, []int) {
	cfg := RunConfig{StateMB: stateMB, Browsers: browsers, Measure: sweepMeasure, Seed: p.Seed}
	if p.Short {
		cfg.Measure = 30 * time.Second
		return cfg, []int{4, 8}
	}
	return cfg, []int{4, 5, 6, 8, 10, 12}
}

// crash sizes a §5.4–5.6 fault run and the replication degrees it is
// repeated at: the paper's 1000 browsers over 540 s on a 500 MB state at
// 5 and 8 replicas, or 400 browsers over 180 s on 300 MB at 5 replicas
// with the first crash pulled to t=90 s on the paper's axis.
func (p Params) crash(fault Faultload) (RunConfig, []int) {
	if p.Short {
		return RunConfig{StateMB: 300, Fault: fault, Browsers: 400,
			Measure: 180 * time.Second, CrashAt: 90, Seed: p.Seed}, matrixDegrees[:1]
	}
	return RunConfig{StateMB: 500, Fault: fault, Seed: p.Seed}, matrixDegrees
}

// suite sizes the sharded dependability deployment — -shards groups of
// three replicas on a 300 MB state under the Shopping profile: the paper's
// load and interval, or 300 browsers over 150 s.
func (p Params) suite() RunConfig {
	cfg := RunConfig{Profile: rbe.Shopping, Servers: 3, Shards: p.Shards, StateMB: 300, Seed: p.Seed}
	if p.Short {
		cfg.Browsers, cfg.Measure = 300, 150*time.Second
	}
	return cfg
}

// Experiments is the table: the paper's evaluation (§5) first, then the
// experiments on what this repository adds to it.
var Experiments = []Experiment{
	entry("speedup", "Figure 3: saturation WIPS/WIRT at 4–12 replicas under the three TPC-W profiles, with the S_k speedups",
		func(p Params, rep *report) {
			base, degrees := p.scale(500, saturationBrowsers) // §5.2: 500 MB initial state
			scale(rep, "Figure 3 — Speedup (saturation, 500 MB state)", base, degrees, false)
		}),
	entry("scaleup", "Figure 4: WIPS/WIRT at 1000 offered WIPS for 4–12 replicas, with the regression fits and the WIPS–WIRT r²",
		func(p Params, rep *report) {
			base, degrees := p.scale(300, faultBrowsers) // §5.3: 300 MB to avoid swapping
			scale(rep, "Figure 4 — Scaleup at 1000 WIPS (300 MB state)", base, degrees, true)
		}),
	entry("one-crash", "Figure 5, Tables 1–2: one crash at t=270 s, autonomous recovery (the histogram is the -servers/-profile run)",
		func(p Params, rep *report) {
			base, degrees := p.crash(OneCrash)
			one := base
			one.Servers, one.Profile = p.Servers, p.Profile
			rep.fig(Run(one))
			m := FaultMatrix(base, degrees)
			performability(rep, "Table 1 — One failure: performability", m)
			accuracy(rep, "Table 2 — One failure: accuracy (%)", m)
			dependability(rep, "One failure: availability/autonomy", m)
		}),
	entry("two-crashes", "Figure 7, Tables 3–4: two overlapped crashes at t=240 s and t=270 s",
		func(p Params, rep *report) {
			m := FaultMatrix(p.crash(TwoCrashes))
			for _, profile := range rbe.Profiles { // Figure 7's panels: each profile's five-replica run
				rep.fig(m[matrixKey(5, profile)])
			}
			performability(rep, "Table 3 — Two overlapped crashes: performability", m)
			accuracy(rep, "Table 4 — Two overlapped crashes: accuracy (%)", m)
			dependability(rep, "Two crashes: availability/autonomy", m)
		}),
	entry("delayed", "Figure 8, Tables 5–6: both crash at t=240 s, one recovers by operator intervention at t=390 s",
		func(p Params, rep *report) {
			m := FaultMatrix(p.crash(DelayedRecovery))
			for _, profile := range rbe.Profiles { // Figure 8's panels: each profile's five-replica run
				rep.fig(m[matrixKey(5, profile)])
			}
			delayedPerformability(rep, m)
			accuracy(rep, "Table 6 — Delayed recovery: accuracy (%)", m)
			dependability(rep, "Delayed recovery: availability/autonomy", m)
		}),
	entry("recovery-times", "Figure 6: one-crash recovery time per replication degree, profile and state size {300, 500, 700} MB",
		func(p Params, rep *report) {
			base, degrees := p.crash(OneCrash)
			if !p.Short {
				// Only the recovery duration is measured: crash
				// earlier, shorter tail.
				base.Measure, base.CrashAt = 300*time.Second, 90
			}
			recoveryTimes(rep, base, degrees)
		}),
	entry("ablations", "design choices switched off under the ordering profile: Fast Paxos, command batching, parallel recovery",
		func(p Params, rep *report) {
			load := RunConfig{Profile: rbe.Ordering, Servers: 5, StateMB: 300,
				Browsers: faultBrowsers, Measure: sweepMeasure, Seed: p.Seed}
			if p.Short {
				load.Browsers, load.Measure = 600, 30*time.Second
			}
			crash, _ := p.crash(OneCrash)
			crash.Profile, crash.Servers = rbe.Ordering, 5
			ablation(rep, Ablation("fast-paxos-vs-classic", "fast paxos", "classic paxos", load,
				func(c *RunConfig) { c.NoFast = true }))
			ablation(rep, Ablation("command-batching", "batched", "one per value", load,
				func(c *RunConfig) { c.NoBatch = true }))
			ablation(rep, Ablation("parallel-recovery", "parallel", "sequential", crash,
				func(c *RunConfig) { c.SeqRec = true }))
		}),
	entry("sharded", "sharded faultloads: one member of every group, a rolling wave, a whole group out until manual recovery",
		func(p Params, rep *report) { suite(rep, Suite(p.suite(), ShardedFaultloads(p.Shards))) }),
	entry("sharded-recovery", "recovery time vs shard count (doubling up to -shards) with one member of every group crashed",
		func(p Params, rep *report) {
			var counts []int
			for n := 1; n < p.Shards; n *= 2 {
				counts = append(counts, n)
			}
			counts = append(counts, p.Shards)
			if p.Short && len(counts) > 2 {
				counts = counts[:2]
			}
			// The suite's groups on a shortened run at either size: only
			// the recovery is measured.
			base := p.suite()
			base.Browsers, base.Measure, base.CrashAt = 600, 180*time.Second, 90
			shardedRecovery(rep, ShardedRecoveryCurve(base, counts))
		}),
	entry("rebalance", "resharding under fault: a group added live at t=240 s, a source-group member killed mid-copy",
		func(p Params, rep *report) {
			r := RebalanceScenario(p.suite())
			rep.fig(r)
			rebalance(rep, r)
		}),
	entry("checkpoint", "recovery time vs checkpoint interval (the Figure 6 trade-off), full-state vs incremental checkpoints",
		func(p Params, rep *report) {
			base := RunConfig{Profile: rbe.Shopping, Servers: 5, StateMB: 500, Browsers: 400,
				Measure: 300 * time.Second, CrashAt: 90, Seed: p.Seed}
			intervals := []int{15, 30, 60, 120}
			if p.Short {
				base.Servers, base.StateMB, base.Browsers, base.Measure = 3, 300, 300, 150*time.Second
				intervals = []int{20, 60}
			}
			checkpointCurve(rep, CheckpointCurve(base, intervals))
		}),
	entry("partition", "correlated network faults: leader isolation, minority split, whole-group isolation, one-way loss",
		func(p Params, rep *report) { suite(rep, Suite(p.suite(), PartitionFaultloads())) }),
	entry("partition-recovery", "leader isolation on 5 replicas: detection+failover and post-heal reabsorption times",
		func(p Params, rep *report) {
			base := RunConfig{Profile: rbe.Shopping, Servers: 5, StateMB: 300, Browsers: 600,
				Measure: 300 * time.Second, Seed: p.Seed}
			if p.Short {
				base.Browsers, base.Measure = 300, 150*time.Second
			}
			partitionBench(rep, PartitionRecoveryBench(base))
		}),
	entry("slowdisk", "the failing-disk straggler: one member's disk degraded live, never tripping crash detection",
		func(p Params, rep *report) {
			r := Suite(p.suite(), []Faultload{SlowDiskFaultload()})[0]
			rep.fig(r)
			shardedDependability(rep, r)
		}),
	entry("gray", "gray failures probe timeouts cannot see: a member or leader erroring or slow-walking, link delay, partition flapping",
		func(p Params, rep *report) { suite(rep, Suite(p.suite(), GrayFaultloads())) }),
	entry("txn", "cross-shard transactions under 2PC-window faults, each run audited for atomicity",
		func(p Params, rep *report) {
			violations := 0
			for _, r := range TxnSuite(p.suite()) {
				txnReport(rep, r)
				rep.line("", "")
				violations += r.Txn.Violations()
			}
			if violations > 0 {
				rep.err = fmt.Errorf("txn: %d atomicity violation(s)", violations)
			}
		}),
	entry("readscale", "read throughput vs learner-backed readers per group under the saturated Browsing profile",
		func(p Params, rep *report) {
			base := RunConfig{Profile: rbe.Browsing, Servers: 3, StateMB: 300,
				Browsers: readScaleBrowsers, Measure: sweepMeasure, Seed: p.Seed}
			counts := []int{0, 1, 3}
			if p.Short {
				base.Measure, counts = 60*time.Second, []int{0, 3}
			}
			readScale(rep, ReadScale(base, counts))
		}),
	entry("batching", "WAL group commit: ordered actions/s vs batch size × pipeline depth against the reference pipeline, at 1, 2 and 4 Paxos groups",
		func(p Params, rep *report) {
			cfg := BatchingConfig{Shards: []int{1, 2, 4}, Warmup: 2 * time.Second, Measure: 5 * time.Second, Seed: p.Seed}
			if p.Short {
				cfg = BatchingConfig{Shards: []int{1, 2}, Warmup: time.Second, Measure: 2 * time.Second, Seed: p.Seed}
			}
			batchingMatrix(rep, cfg)
		}),
}
