package search

import (
	"os"
	"strings"
	"testing"
	"time"

	"robuststore/internal/exp"
	"robuststore/internal/paxos"
)

// pinnedCorpus is the committed counterexample corpus, relative to this
// package's directory.
const pinnedCorpus = "../testdata/pinned"

// replay runs one pinned case and judges it with the oracles it was
// found under.
func replay(t *testing.T, pc PinnedCase) Verdict {
	t.Helper()
	rc, err := pc.RunConfig()
	if err != nil {
		t.Fatalf("reconstructing %s: %v", pc.Name, err)
	}
	baseCfg := rc
	baseCfg.Fault = exp.NoFault
	base := exp.Run(baseCfg)
	r := exp.RunUncached(rc)
	evs := rc.Fault.Events
	return Evaluate(r, base.AWIPS, lastFaultRunSec(evs, rc.Measure))
}

// TestPinnedCorpusReplaysClean auto-replays every counterexample under
// testdata/pinned against the current build: each was a real failure
// when found, each must stay fixed. A regression that re-breaks one
// fails here with the original violation for context.
func TestPinnedCorpusReplaysClean(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned corpus replay in -short mode")
	}
	cases, paths, err := LoadPins(pinnedCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) == 0 {
		t.Fatalf("no pinned cases under %s — the corpus should hold at least the stale-leader wedge", pinnedCorpus)
	}
	for i, pc := range cases {
		pc := pc
		path := paths[i]
		t.Run(pc.Name, func(t *testing.T) {
			if v := replay(t, pc); v.Failed() {
				t.Errorf("pinned case %s (%s) fails again: %v\noriginally: %v",
					pc.Name, path, v.Violations, pc.Violations)
			}
		})
	}
}

// TestHuntFindsShrinksAndPinsKnownBug is the harness's own acceptance
// test: with the stale-leader-rejoin fix reverted behind its test
// toggle, the generative search must find the write-wedge, delta-debug
// the schedule down, and pin a counterexample that reproduces the wedge
// pre-fix and passes post-fix. The hunt seed is chosen (like the paxos
// regression seeds) so a leader partition/heal schedule falls inside a
// small budget; the wedge itself is the real heal-time race, not a
// scripted failure. The race depends on the ordering path's timing, so a
// change to it can move the race out of a seed's schedules: seed 26 held it
// until fast-round recoveries stopped running phase 1; seed 138 finds it in
// its second schedule and shrinks 12 events to 4.
func TestHuntFindsShrinksAndPinsKnownBug(t *testing.T) {
	if testing.Short() {
		t.Skip("hunt acceptance run in -short mode")
	}
	paxos.BugStaleLeaderRejoin = true
	defer func() { paxos.BugStaleLeaderRejoin = false }()

	dir := t.TempDir()
	rep := Hunt(Config{Seed: 138, Budget: 4, PinDir: dir, Log: os.Stderr, Base: exp.RunConfig{
		Servers: 5, StateMB: 300, Browsers: 300, Measure: 120 * time.Second}})
	if len(rep.Findings) == 0 {
		t.Fatal("hunt against the known-bad engine found nothing")
	}
	f := rep.Findings[0]
	wedged := false
	for _, viol := range f.Case.Violations {
		if strings.HasPrefix(viol, "write-wedge") {
			wedged = true
		}
	}
	if !wedged {
		t.Fatalf("finding is not the write-wedge: %v", f.Case.Violations)
	}
	if f.EventsMin >= f.EventsFound {
		t.Errorf("shrinker made no progress: %d → %d events", f.EventsFound, f.EventsMin)
	}
	if f.Path == "" {
		t.Fatal("finding was not pinned")
	}
	if _, err := os.Stat(f.Path); err != nil {
		t.Fatalf("pinned file missing: %v", err)
	}

	// The pinned schedule reproduces the wedge on the broken engine...
	if v := replay(t, f.Case); !v.Failed() {
		t.Error("pinned schedule does not reproduce the wedge pre-fix")
	}
	// ...and passes once the fix is back in.
	paxos.BugStaleLeaderRejoin = false
	if v := replay(t, f.Case); v.Failed() {
		t.Errorf("pinned schedule still fails post-fix: %v", v.Violations)
	}
}
