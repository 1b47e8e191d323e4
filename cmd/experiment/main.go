// Command experiment reproduces the paper's evaluation from the command
// line: it runs any (or all) of the experiments of internal/exp's table —
// Figures 3-8 and Tables 1-6 on the simulated cluster, then the
// experiments on what this repository adds to the paper — and prints the
// rows and series each reports. -h lists them.
//
// Usage:
//
//	experiment -run all -short
//	experiment -run one-crash -servers 5 -profile ordering
//	experiment -run sharded -shards 2 -short
//	experiment -run hunt -budget 16
//	experiment -run hunt -short -pin internal/exp/testdata/pinned
//
// -short runs an experiment at its short size; `-run all -short` prints
// exactly internal/exp/testdata/golden/all-short.txt, and redirecting it
// there is how that file is regenerated.
//
// The hunt mode drives the faultload DSL generatively: it samples -budget
// random schedules from the grammar, judges each run with failure oracles
// (fence violations, availability floor, write-wedge), delta-debugs every
// failure to a minimal schedule, and — with -pin — writes each survivor
// as a reproducible JSON counterexample. It is not part of `-run all`.
//
// The process exits 1 when an experiment fails its own check (a hunt
// finding, a transaction atomicity violation), so a CI job fails loudly.
// Every run is deterministic for a given -seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/exp/search"
	"robuststore/internal/rbe"
)

func main() {
	d := exp.DefaultParams
	var (
		seed    = flag.Uint64("seed", d.Seed, "root seed (runs are deterministic per seed)")
		servers = flag.Int("servers", d.Servers, "replication degree for single-run modes")
		profile = flag.String("profile", d.Profile.String(), "workload profile for single-run modes: browsing | shopping | ordering")
		shards  = flag.Int("shards", d.Shards, "Paxos group count for the sharded modes")
		short   = flag.Bool("short", false, "run each experiment at its short size")
		budget  = flag.Int("budget", 16, "schedules the hunt mode tries")
		pin     = flag.String("pin", "", "directory the hunt mode pins found counterexamples under (empty: report only)")
	)
	// The table, plus the one experiment internal/exp cannot hold (the
	// search imports it).
	table := slices.Concat(exp.Experiments, []exp.Experiment{{
		Name: "hunt", Doc: "generative fault search: random schedules, oracle judgement, shrinking, pinning",
		Run: func(p exp.Params, w io.Writer) error {
			// One group of three on a 300 MB state, 300 browsers over a
			// shortened 120 s (event times scale).
			cfg := search.Config{Seed: p.Seed, Budget: *budget, PinDir: *pin, Log: w, Base: exp.RunConfig{
				Servers: 3, StateMB: 300, Browsers: 300, Measure: 120 * time.Second}}
			if p.Short {
				cfg.Budget, cfg.Base.Browsers, cfg.ShrinkBudget = 2, 200, 12
			}
			rep := search.Hunt(cfg)
			search.PrintReport(w, rep)
			if n := len(rep.Findings); n > 0 {
				return fmt.Errorf("hunt: %d finding(s)", n)
			}
			return nil
		},
	}})
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name
	}
	which := flag.String("run", "all", "experiment: "+strings.Join(names, " | ")+" | all")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintln(flag.CommandLine.Output(), "\nExperiments (all = every one but hunt):")
		for _, e := range table {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-19s%s\n", e.Name, e.Doc)
		}
	}
	flag.Parse()

	p := exp.Params{Seed: *seed, Shards: *shards, Servers: *servers, Short: *short}
	for _, known := range rbe.Profiles {
		if known.String() == *profile {
			p.Profile = known
		}
	}
	err := fmt.Errorf("unknown profile %q", *profile)
	if p.Profile != 0 {
		err = run(table, *which, p, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment:", err)
		os.Exit(1)
	}
}

// run runs the named experiment of table, or for "all" every one of
// internal/exp's own.
func run(table []exp.Experiment, which string, p exp.Params, w io.Writer) error {
	if which == "all" {
		return exp.RunAll(p, w)
	}
	for _, e := range table {
		if e.Name == which {
			return e.Run(p, w)
		}
	}
	return fmt.Errorf("unknown experiment %q", which)
}
