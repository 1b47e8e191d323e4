package mutants

import (
	"flag"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/exp/search"
)

var (
	huntPin  = flag.String("hunt-pin", "", "set when TestHuntFindsShrinksAndPinsKnownBug runs itself on the stale-leader-rejoin mutant's build: the directory its hunt pins under")
	huntSeed = flag.Uint64("hunt-seed", 274, "the seed TestHuntFindsShrinksAndPinsKnownBug hunts from")
)

// acceptanceBudget is the schedules the acceptance hunt tries.
const acceptanceBudget = 32

// TestHuntFindsShrinksAndPinsKnownBug is the fault hunt's own acceptance
// test: on the stale-leader-rejoin mutant's build (both halves of the fix
// reverted), the generative search must find the write-wedge, delta-debug the
// schedule down, and pin a counterexample that reproduces the wedge on that
// build and passes on this one. The test runs itself on the mutant's build,
// with -hunt-pin naming where the hunt pins, and replays the pins here.
//
// The hunt is aimed at the stale-leader window, not pointed at one
// schedule: it draws only partitions, whose heal is where the race lives,
// and link delays, which the shrinker must cut away; its base runs 100
// browsers, where a heal meets less traffic; and every trial runs on a seed
// of its own, because the race turns on the phase of the nodes' timers,
// which a run seed fixes. The wedge itself is the real heal-time race, not
// a scripted failure. Hunting from any of the twelve seeds 274…285, it
// found, shrank and pinned the wedge from nine; a finding drawn as one
// partition and its heal is already minimal, and the other three found
// only such. -hunt-seed N hunts from seed N instead.
func TestHuntFindsShrinksAndPinsKnownBug(t *testing.T) {
	if testing.Short() {
		t.Skip("hunt acceptance run in -short mode")
	}
	if *huntPin != "" {
		huntKnownBug(t, *huntPin)
		return
	}
	t.Parallel()
	dir := t.TempDir()
	ov, err := writeOverlay(row("stale-leader-rejoin"), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err := goCmd("test", "-overlay", ov, "-count=1", "-v", "-run", "^TestHuntFindsShrinksAndPinsKnownBug$", "./internal/mutants/", "-args", "-hunt-pin="+dir, "-hunt-seed="+strconv.FormatUint(*huntSeed, 10))
	t.Logf("on the stale-leader-rejoin mutant's build:\n%s", out)
	if err != nil {
		t.Fatal("the hunt's acceptance failed on the mutant's build")
	}
	cases, paths, err := search.LoadPins(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatal("the mutant's hunt pinned nothing")
	}
	// ...and every pinned schedule passes once the fix is back in.
	for i, pc := range cases {
		if v, err := pc.Replay(); err != nil {
			t.Fatal(err)
		} else if v.Failed() {
			t.Errorf("pinned schedule %s still fails post-fix: %v", paths[i], v.Violations)
		}
	}
}

// huntKnownBug is the part of the acceptance test that runs on the mutant's
// build: the hunt finds, shrinks and pins the wedge under dir, and the pinned
// schedule reproduces it.
func huntKnownBug(t *testing.T, dir string) {
	// One hunt of one schedule per seed: each trial runs on a seed of its
	// own, and so draws its own phase of the nodes' timers.
	var findings []search.Finding
	for i := range uint64(acceptanceBudget) {
		rep := search.Hunt(search.Config{Seed: *huntSeed + i, Budget: 1, Ops: []exp.FaultOp{exp.OpPartition, exp.OpLinkDelay}, PinDir: dir, Log: os.Stderr,
			Base: exp.RunConfig{Servers: 5, StateMB: 300, Browsers: 100, Measure: 120 * time.Second}})
		findings = append(findings, rep.Findings...)
	}
	if len(findings) == 0 {
		t.Fatal("hunt against the known-bad engine found nothing")
	}
	// Every finding must be the write-wedge. The test follows the first one
	// the shrinker cut down, and still a partition, through its pin and its
	// replay: a finding drawn as one partition and its heal is already
	// minimal, and cutting only link delays is no shrink of the race.
	var f *search.Finding
	for i := range findings {
		fi := &findings[i]
		if !slices.ContainsFunc(fi.Case.Violations, func(v string) bool { return strings.HasPrefix(v, "write-wedge") }) {
			t.Fatalf("finding %s is not the write-wedge: %v", fi.Case.Name, fi.Case.Violations)
		}
		partitioned := slices.ContainsFunc(fi.Case.Events, func(ev search.PinnedEvent) bool { return ev.Op == exp.OpPartition.String() })
		if f == nil && fi.EventsMin < fi.EventsFound && partitioned {
			f = fi
		}
	}
	if f == nil {
		t.Fatalf("shrinker made no progress on any of %d findings, or cut away their partition", len(findings))
	}
	if f.Path == "" {
		t.Fatal("finding was not pinned")
	}
	if _, err := os.Stat(f.Path); err != nil {
		t.Fatalf("pinned file missing: %v", err)
	}

	// The pinned schedule reproduces the wedge on the broken engine...
	if v, err := f.Case.Replay(); err != nil {
		t.Fatal(err)
	} else if !v.Failed() {
		t.Error("pinned schedule does not reproduce the wedge pre-fix")
	}
}
