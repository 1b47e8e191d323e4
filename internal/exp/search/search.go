// Package search drives the faultload DSL generatively: it samples
// random fault schedules from the grammar (weighted op mix, random
// selectors, times and factors), runs each against the simulated
// deployment, judges the result with failure oracles (fence violations,
// availability floor, write-wedge), delta-debugs every failing schedule
// to a minimal event set and time window, and pins the survivors as
// reproducible JSON counterexamples replayed by a regression test.
//
// The entry point is Hunt; cmd/experiment surfaces it as -run hunt.
package search

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"robuststore/internal/exp"
)

// Config parameterizes one hunt.
type Config struct {
	// Base is the run every schedule is bound to: deployment, load and
	// measurement interval (event times scale with a shortened one). Its
	// Seed and Fault are the hunt's to set. A TxnRate drives cross-shard
	// transactions (2PC) beside the RBE load and arms the atomicity oracle
	// — a hunt on 2+ groups should set one, or it never probes the
	// transaction window.
	Base exp.RunConfig

	// Ops, when set, narrows the sampler's op mix to these ops, at their
	// weights in the whole mix: a hunt aimed at one mechanism (the
	// stale-leader race lives in a partition and its heal). Empty samples
	// the whole mix.
	Ops []exp.FaultOp

	Seed         uint64 // sampler base seed; trial t draws its own stream
	Budget       int    // schedules to try; default 16
	ShrinkBudget int    // max probe runs per shrink; default 24

	PinDir string    // survivors written here; empty disables pinning
	Log    io.Writer // per-trial progress; nil for silent
}

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 16
	}
	if c.ShrinkBudget == 0 {
		c.ShrinkBudget = 24
	}
	return c
}

// Finding is one failing schedule: found, shrunk, and (when PinDir is
// set) pinned.
type Finding struct {
	Case        PinnedCase
	Path        string // pinned file; empty when pinning is disabled
	EventsFound int    // schedule size as sampled
	EventsMin   int    // after shrinking
	ShrinkRuns  int    // probe runs the shrink spent
}

// Report summarizes one hunt.
type Report struct {
	Tried    int // schedules sampled and run
	Runs     int // total runs, shrink probes and baselines included
	Findings []Finding
}

// Hunt samples Budget random schedules, judges each with the oracles,
// and shrinks + pins every failure. Runs bypass the exp memo cache (the
// schedules are one-shot); failure-free baselines go through it, so the
// handful of distinct run seeds share baselines.
func Hunt(cfg Config) Report {
	cfg = cfg.withDefaults()
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}
	var rep Report
	baselined := map[uint64]bool{}
	mix := mixOf(cfg.Ops)
	for t := 0; t < cfg.Budget; t++ {
		// Rotate over a few run seeds: schedule diversity does most of
		// the exploring, and reusing seeds keeps the baseline runs (one
		// per seed, memoized) from dominating the budget.
		runSeed := cfg.Seed + uint64(t%4)

		rc := cfg.Base
		rc.Seed, rc.Fault = runSeed, exp.NoFault
		base := exp.Run(rc)
		if !baselined[runSeed] {
			baselined[runSeed] = true
			rep.Runs++ // memoized: one real run per distinct seed
		}
		rc = base.Cfg // Base with exp's defaults filled in
		rng := rand.New(rand.NewSource(int64(cfg.Seed)*1_000_003 + int64(t)))
		sc := sampleSchedule(rng, rc.Shards, rc.Servers, mix)
		judge := func(evs []exp.FaultEvent) Verdict {
			rc.Fault = exp.Faultload{Name: sc.fl.Name, Events: evs}
			rep.Runs++
			return Evaluate(exp.RunUncached(rc), base.AWIPS, lastFaultRunSec(evs, rc.Measure))
		}
		v := judge(sc.fl.Events)
		rep.Tried++
		if !v.Failed() {
			logf("schedule %d/%d %s (%d events, seed %d): clean",
				t+1, cfg.Budget, sc.fl.Name, len(sc.fl.Events), runSeed)
			continue
		}
		logf("schedule %d/%d %s (%d events, seed %d): FAILED — %s",
			t+1, cfg.Budget, sc.fl.Name, len(sc.fl.Events), runSeed,
			strings.Join(v.Violations, "; "))

		failing := func(evs []exp.FaultEvent) bool { return judge(evs).Failed() }
		minEvents, probes := Shrink(sc.fl.Events, failing, cfg.ShrinkBudget, logf)
		logf("shrunk %s: %s in %d probe run(s)",
			sc.fl.Name, shrinkRatio(len(sc.fl.Events), len(minEvents)), probes)

		pc := PinnedCase{
			Name:       sc.fl.Name,
			Violations: v.Violations,
			Seed:       runSeed,
			Profile:    rc.Profile.String(),
			Servers:    rc.Servers,
			Shards:     rc.Shards,
			StateMB:    rc.StateMB,
			Browsers:   rc.Browsers,
			MeasureSec: int(rc.Measure.Seconds()),
			TxnRate:    rc.TxnRate,
			Events:     pinEvents(minEvents),
		}
		f := Finding{
			Case:        pc,
			EventsFound: len(sc.fl.Events),
			EventsMin:   len(minEvents),
			ShrinkRuns:  probes,
		}
		if cfg.PinDir != "" {
			path, err := SavePin(cfg.PinDir, pc)
			if err != nil {
				logf("pin %s: %v", sc.fl.Name, err)
			} else {
				logf("pinned %s → %s", sc.fl.Name, path)
				f.Path = path
			}
		}
		rep.Findings = append(rep.Findings, f)
	}
	return rep
}

// PrintReport renders the hunt summary in the metrics style of the
// experiment tables.
func PrintReport(w io.Writer, rep Report) {
	fmt.Fprintf(w, "Fault search — %d schedule(s) tried, %d run(s) total, %d failure(s)\n",
		rep.Tried, rep.Runs, len(rep.Findings))
	if len(rep.Findings) == 0 {
		fmt.Fprintln(w, "  no oracle violations found")
		return
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(w, "  %s (seed %d): shrunk %s in %d probe run(s)\n",
			f.Case.Name, f.Case.Seed, shrinkRatio(f.EventsFound, f.EventsMin), f.ShrinkRuns)
		for _, viol := range f.Case.Violations {
			fmt.Fprintf(w, "    %s\n", viol)
		}
		for _, ev := range f.Case.Events {
			line := fmt.Sprintf("    t=%.0f s  %s %s", ev.AtSec, ev.Op, ev.Scope)
			if ev.Scope == "member" || ev.Scope == "reader" {
				line += fmt.Sprintf(" %d.%d", ev.Group, ev.Slot)
			} else {
				line += fmt.Sprintf(" %d", ev.Group)
			}
			if ev.Factor != 0 {
				line += fmt.Sprintf(" ×%g", ev.Factor)
			}
			if ev.Dir != "" {
				line += " " + ev.Dir
			}
			fmt.Fprintln(w, line)
		}
		if f.Path != "" {
			fmt.Fprintf(w, "    pinned: %s\n", f.Path)
		}
	}
}
