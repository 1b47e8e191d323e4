package search

import (
	"path/filepath"
	"reflect"
	"testing"

	"robuststore/internal/env"
	"robuststore/internal/exp"
)

// TestPinRoundTrip: a schedule survives serialize → save → load →
// reconstruct byte for byte, and saving is idempotent.
func TestPinRoundTrip(t *testing.T) {
	events := []exp.FaultEvent{
		{AtSec: 60, Op: exp.OpGrayFail, Select: exp.Leader(0), Factor: 20},
		{AtSec: 90, Op: exp.OpLinkDelay, Select: exp.Member(1, 1), Dir: env.LinkOutboundOnly, Factor: 50},
		{AtSec: 150, Op: exp.OpGrayRestore, Select: exp.Leader(0)},
		{AtSec: 180, Op: exp.OpLinkDelayRestore, Select: exp.Member(1, 1)},
	}
	pc := PinnedCase{
		Name:       "round-trip",
		Violations: []string{"write-wedge: synthetic"},
		Seed:       7,
		Profile:    "shopping",
		Servers:    3,
		Shards:     2,
		StateMB:    300,
		Browsers:   200,
		MeasureSec: 120,
		Events:     pinEvents(events),
	}

	dir := t.TempDir()
	path1, err := SavePin(dir, pc)
	if err != nil {
		t.Fatal(err)
	}
	path2, err := SavePin(dir, pc)
	if err != nil {
		t.Fatal(err)
	}
	if path1 != path2 {
		t.Fatalf("saving the same case twice produced %s and %s", path1, path2)
	}

	cases, paths, err := LoadPins(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 || filepath.Clean(paths[0]) != filepath.Clean(path1) {
		t.Fatalf("loaded %d case(s) from %v, want 1 at %s", len(cases), paths, path1)
	}
	if !reflect.DeepEqual(cases[0], pc) {
		t.Fatalf("round trip mangled the case:\n  saved  %+v\n  loaded %+v", pc, cases[0])
	}

	rc, err := cases[0].RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rc.Fault.Events, events) {
		t.Fatalf("reconstructed events differ:\n  want %+v\n  got  %+v", events, rc.Fault)
	}
	if rc.Servers != 3 || rc.Shards != 2 || rc.Seed != 7 || rc.Browsers != 200 {
		t.Fatalf("reconstructed config differs: %+v", rc)
	}
}

// TestLoadPinsMissingDir: an absent corpus is empty, not an error.
func TestLoadPinsMissingDir(t *testing.T) {
	cases, paths, err := LoadPins(filepath.Join(t.TempDir(), "nope"))
	if err != nil || len(cases) != 0 || len(paths) != 0 {
		t.Fatalf("missing dir: cases=%v paths=%v err=%v", cases, paths, err)
	}
}

// TestOpScopeNameTables: the window-fault table is whole — every row has
// both ops and both names, every op round-trips through its serialized
// name, every opener is in the sampler's mix and is what Flap accepts — and
// every scope round-trips too (guards a new row or enum value against
// silently dropping out of pins, the hunt or Flap).
func TestOpScopeNameTables(t *testing.T) {
	for _, op := range exp.Ops() {
		if got, ok := opByName[op.String()]; !ok || got != op || op.String() == "unknown" {
			t.Errorf("op %d (%s) does not round-trip", op, op)
		}
	}
	if len(opByName) != len(exp.Ops()) {
		t.Errorf("%d names for %d ops: two ops share a name", len(opByName), len(exp.Ops()))
	}
	mixed := map[exp.FaultOp]bool{}
	for _, e := range opMix {
		mixed[e.op] = true
	}
	flaps := func(op exp.FaultOp) (ok bool) {
		defer func() { ok = recover() == nil }()
		exp.Flap(op, exp.Member(0, 0), 0, 100, 50, 0.5, 0)
		return
	}
	opens := map[exp.FaultOp]bool{}
	for _, wf := range exp.WindowFaults {
		opens[wf.Open] = true
		if wf.Open == wf.Close || wf.OpenName == "" || wf.CloseName == "" || wf.Kind == "" {
			t.Errorf("incomplete row %+v", wf)
		}
		if got, ok := exp.RestoreOf(wf.Open); !ok || got != wf.Close {
			t.Errorf("%v closes with %v, want %v", wf.Open, got, wf.Close)
		}
		if !mixed[wf.Open] {
			t.Errorf("%v is not in the sampler's mix", wf.Open)
		}
	}
	for _, op := range exp.Ops() {
		if flaps(op) != opens[op] {
			t.Errorf("Flap(%v) accepted = %v, want %v", op, flaps(op), opens[op])
		}
	}
	for scope, name := range scopeNames {
		if scopeByName[name] != scope {
			t.Errorf("scope %v (%s) does not round-trip", scope, name)
		}
	}
}

// pinnedCorpus is the committed counterexample corpus, relative to this
// package's directory.
const pinnedCorpus = "../testdata/pinned"

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
		t.Run(pc.Name, func(t *testing.T) {
			v, err := pc.Replay()
			if err != nil {
				t.Fatal(err)
			}
			if v.Failed() {
				t.Errorf("pinned case %s (%s) fails again: %v\noriginally: %v",
					pc.Name, paths[i], v.Violations, pc.Violations)
			}
		})
	}
}
