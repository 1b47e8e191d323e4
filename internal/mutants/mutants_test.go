// Package mutants is the repository's kill matrix: which check catches which
// known bug. Each row is a mutant that plants one bug this repository once
// had, by an edit to the file as it stands; each column is a check. The
// mutated files reach the build through `go test -overlay` and `go run
// -overlay` in a child go command, so the tree is never touched and no
// production code carries a switch for a test to flip. The matrix is compared
// byte for byte with testdata/matrix.txt.
//
//	go test -short ./internal/mutants/   the directed column
//	go test ./internal/mutants/          that, and the hunt's own acceptance
//	go test ./internal/mutants/ -full    every column
//
// -hunt-budget N runs the hunt column at N schedules instead of `-short`.
// The package holds only tests: nothing outside it imports a mutant.
//
// Rules for the matrix: a change that fixes a bug adds its mutant as a row,
// with a directed test that kills it; a cell that flips from "killed" to
// "survives" comes with the reason why.
package mutants

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	full       = flag.Bool("full", false, "run every column of the kill matrix, not the directed one alone")
	huntBudget = flag.Int("hunt-budget", 0, "schedules the hunt column tries; 0 runs `-run hunt -short`")
	update     = flag.Bool("update", false, "write the matrix this run prints to testdata/matrix.txt")
)

// A mutant plants one known bug: an edit to each file it touches.
type mutant struct {
	name  string
	note  string // the bug it plants and the change (by its subject) that fixed it
	edits []edit
	// The directed column: `go test -run run pkg`.
	pkg, run string
}

// An edit replaces old, which must occur exactly once in the file, by new.
// It is applied to the file as it stands, so a later change to the rest of
// the file is kept in the mutant.
type edit struct{ file, old, new string }

var (
	staleBid = edit{"internal/paxos/leader.go",
		"\ten.curBallot = b\n",
		"\tif false {\n\t\ten.curBallot = b\n\t}\n"}
	staleNack = edit{"internal/paxos/acceptor.go",
		"c >= 0 && c != en.me {",
		"c >= 0 && c != en.me && false {"}
)

// mutants is the matrix's rows, the control row first.
var mutants = []mutant{
	{name: "control", note: "no edit: every check passes on the code as it stands; its directed column runs every row's directed tests"},
	{name: "wal-ack-on-error", note: "walDone acknowledges a promise or vote whose WAL sync failed; fixed beside \"A fast round does not wait on a replica reading its checkpoint\"",
		edits: []edit{{"internal/paxos/wal.go",
			"case d.msg != nil && err == nil:",
			"case d.msg != nil:"}},
		pkg: "./internal/paxos/", run: "TestFailedSyncIsNotAcknowledged"},
	{name: "collision-loser-unplaced", note: "selectValue's free choice is blind to values placed elsewhere, so two collisions pick the same value; fixed in \"A collision's recovery places the value that lost\"",
		edits: []edit{{"internal/paxos/leader.go",
			"if p != mostPlaced {",
			"if p != mostPlaced && false {"}},
		pkg: "./internal/paxos/", run: "TestCollisionLoserPlaced|TestSelectValuePlacedProperty|TestCollisionsNeedNoRetry"},
	{name: "stale-leader-bid", note: "the bid half of the stale-leader-rejoin fix (from \"Gray-failure fault ops and generative adversarial fault search\") reverted: a bidder does not claim its own bid, so a stale heartbeat talks it out of it",
		edits: []edit{staleBid},
		pkg:   "./internal/paxos/", run: "TestBidOutranksStaleHeartbeat"},
	{name: "stale-leader-nack", note: "the nack half of the stale-leader-rejoin fix (from \"Gray-failure fault ops and generative adversarial fault search\") reverted: an acceptor drops a superseded fast round's proposals silently",
		edits: []edit{staleNack},
		pkg:   "./internal/paxos/", run: "TestSupersededFastRoundIsNacked"},
	{name: "stale-leader-rejoin", note: "both halves of the stale-leader-rejoin fix reverted: the heal-time livelock the partition faultloads exposed, and the bug the hunt's acceptance test must find",
		edits: []edit{staleBid, staleNack},
		pkg:   "./internal/paxos/", run: "TestStaleLeaderRejoinLiveness"},
	{name: "recovery-fresh-ballot", note: "a recovery from fast votes proposes at a fresh ballot, not at (s, Rec), leaving room for a rival's choice; fixed in \"A fast round's recovery skips phase 1\"",
		edits: []edit{{"internal/paxos/leader.go",
			"\tb := ls.b.recovery()\n",
			"\tls.recSeq = nextOwnedBallot(max(en.maxBallotSeq, ls.recSeq), env.NodeID(en.myIdx), en.n)\n\tb := Ballot{Seq: ls.recSeq}\n\ten.noteBallot(b)\n"}},
		pkg: "./internal/paxos/", run: "TestRecoveryRoundFollowsFastRound"},
	{name: "less-blind-to-rec", note: "Ballot.Less does not order (s, Rec) after s; from \"A fast round's recovery skips phase 1\"",
		edits: []edit{{"internal/paxos/types.go",
			"return b.Seq < o.Seq || b.Seq == o.Seq && !b.Rec && o.Rec }",
			"return b.Seq < o.Seq }"}},
		pkg: "./internal/paxos/", run: "TestRecoveryRoundFollowsFastRound"},
	{name: "nack-own-recovery-round", note: "onNack takes a nack naming the leadership's own (s, Rec) for a forgotten own ballot and bids again; from \"A fast round's recovery skips phase 1\"",
		edits: []edit{{"internal/paxos/leader.go",
			" || m.Promised == ls.b.recovery() {",
			" {"}},
		pkg: "./internal/paxos/", run: "TestRecoveryRoundFollowsFastRound"},
	{name: "nack-forgotten-own-ballot", note: "a leader ignores nacks naming a ballot of its own earlier incarnation and retries for ever; fixed in \"Learn a decision where it is made and announce it once; fix two leader wedges\"",
		edits: []edit{{"internal/paxos/leader.go",
			"if ls.recSeq < m.Promised.Seq {",
			"if false && ls.recSeq < m.Promised.Seq {"}},
		pkg: "./internal/paxos/", run: "TestNackAtForgottenOwnBallot"},
	{name: "promise-below-vote-floor", note: "a promise speaks from m.From, not max(m.From, votesFrom()), so a new leader fills compacted decided instances with no-ops: the compacted-acceptor agreement bug",
		edits: []edit{{"internal/paxos/acceptor.go",
			"From: max(m.From, en.votesFrom())}",
			"From: m.From}"}},
		pkg: "./internal/paxos/", run: "TestPromiseBelowCompactionFloor"},
	{name: "propose-onto-recovery", note: "leaderPropose puts a client value on an instance gap repair is recovering; fixed in \"Learn a decision where it is made and announce it once; fix two leader wedges\"",
		edits: []edit{{"internal/paxos/leader.go",
			"r.proposing() || r.recovering(); r = ls.at(inst)",
			"r.proposing(); r = ls.at(inst)"}},
		pkg: "./internal/paxos/", run: "TestFreshLeaderKeepsRecoveredInstance"},
	{name: "accept-below-delivery-floor", note: "onAccept drops accepts below the learner's retainedFrom, not the log's base: the whole-group-restart stall, fixed in \"The acceptor answers every question from one floor\"",
		edits: []edit{{"internal/paxos/acceptor.go",
			"if m.Inst < en.log.Base() {",
			"if m.Inst < en.retainedFrom {"}},
		pkg: "./internal/paxos/", run: "TestRestartAboveVoteFloor|TestListedVotesCanBeReplaced"},
	{name: "fast-while-restoring", note: "fastPossible ignores a live member reading its checkpoint; from \"A fast round does not wait on a replica reading its checkpoint\"",
		edits: []edit{{"internal/paxos/leader.go",
			"\tif en.restoring {\n\t\treturn false\n\t}\n\tnow := en.e.Now()\n\tfor id := range en.peerRestoring {\n\t\tif en.seenWithin(now, en.lastSeen[id]) {\n\t\t\treturn false\n\t\t}\n\t}\n",
			""}},
		pkg: "./internal/paxos/", run: "TestRestoringMemberMakesRoundsClassic"},
	{name: "fast-quorum-whole-group", note: "fastPossible opens fast rounds where the fast quorum is the whole group, n ≤ 3; from \"A fast round never needs the whole group\"",
		edits: []edit{{"internal/paxos/leader.go",
			"en.cfg.FastEnabled && FastQuorum(en.n) < en.n && ",
			"en.cfg.FastEnabled && "}},
		pkg: "./internal/paxos/", run: "TestFastRoundsLeaveAnAcceptorOut"},
	{name: "manifest-after-failed-layer", note: "a checkpoint commits its manifest though the layer write failed; fixed in \"One checkpoint layout\"",
		edits: []edit{{"internal/core/delta.go",
			"\t\tif failed(\"layer\", err) {\n\t\t\treturn\n\t\t}\n",
			""}},
		pkg: "./internal/core/", run: "TestFailedCheckpointWriteKeepsPreviousCheckpoint"},
	{name: "restore-never-cleared", note: "finishRestore leaves the restore announced, so the group never orders in fast rounds again; from \"A fast round does not wait on a replica reading its checkpoint\"",
		edits: []edit{{"internal/core/replica.go",
			"\tr.en.SetRestoring(false)\n",
			""}},
		pkg: "./internal/core/", run: "TestRestoreAnnouncedUntilFinished"},
	{name: "head-edit-ignores-capture", note: "table.edit writes a head in place whenever the table owns its page, though a delta or a migration payload shares it; from \"A replicated write allocates only what the store keeps\"",
		edits: []edit{{"internal/tpcw/table.go",
			"if !ok || t.mine(k) {",
			"if pi, _ := split(k); !ok || t.pages[pi].owner == t.own {"}},
		pkg: "./internal/tpcw/", run: "TestEditCopiesOnlyFirstWriteAfterCapture"},
	{name: "election-stagger-by-id", note: "the election timeout is staggered by node ID, not by member index, so a group whose IDs do not start at 0 elects late; fixed in \"The election stagger uses the member index\"",
		edits: []edit{{"internal/paxos/engine.go",
			"time.Duration(en.myIdx)*en.cfg.LeaderTimeout/2",
			"time.Duration(int64(en.me))*en.cfg.LeaderTimeout/2"}},
		pkg: "./internal/paxos/", run: "TestElectionStaggerByMemberIndex"},
	{name: "heal-clears-overlapping-fault", note: "a heal zeroes the loss of every link it covered instead of recomputing it from the faults still open, so closing one of two overlapping windows lifts the other's loss where they share a link; fixed in \"Every fault window is a handle that heals only what it opened\"",
		edits: []edit{{"internal/netfault/netfault.go",
			"\tfor k := range h.links {\n\t\tt.settle(k)\n",
			"\tfor k := range h.links {\n\t\tt.settle(k)\n\t\tif l, ok := t.links[k]; ok {\n\t\t\tl.Loss = 0\n\t\t\tt.links[k] = l\n\t\t}\n"}},
		pkg: "./internal/exp/", run: "TestOverlappingWindowsHealOnlyTheirOwn"},
	{name: "slab-reuses-records", note: "an exhausted slab rewinds onto its own array, so a vote, an announcement or a command slice still held is rewritten by a later record: the rule that \"Consensus takes its per-decision records from append-only slabs\" rests on, a slab never hands a record out twice",
		edits: []edit{{"internal/slab/slab.go",
			"\t\ts.buf, i = make([]T, 0, per), 0\n",
			"\t\tif cap(s.buf) == 0 {\n\t\t\ts.buf = make([]T, 0, per)\n\t\t}\n\t\ts.buf, i = s.buf[:0], 0\n"}},
		pkg: "./internal/paxos/", run: "TestSlabRecordsAreNeverReused"},
	{name: "value-copied-into-vote", note: "vote stores a copy of the proposer's value, not its pointer, so every vote, and every decision taken from one, holds a second Value: the rule that \"a Value is built once, and every vote, message and delivery holds it by pointer\" rests on",
		edits: []edit{{"internal/paxos/acceptor.go",
			"\tvote.B, vote.Inst, vote.V = b, inst, v\n",
			"\tcp := *v\n\tvote.B, vote.Inst, vote.V = b, inst, &cp\n"}},
		pkg: "./internal/paxos/", run: "TestValueBuiltOnce"},
	{name: "store-slab-shared-by-clone", note: "Clone hands the clone its source's slabs, so the two carve the same records and each store's next row overwrites the other's: the rule that \"the store carves the rows a write keeps from append-only slabs\" rests on, a slab belongs to one store",
		edits: []edit{{"internal/tpcw/snapshot.go",
			"\tout := &Store{}\n",
			"\tout := &Store{rows: s.rows}\n"}},
		pkg: "./internal/tpcw/", run: "TestStoreRowsAreNeverShared"},
	{name: "ring-regrow-misplaces", note: "a ring that outgrows its array copies the entries to the new one by position, not by number, so a window that wraps the old array comes back scrambled: the rule that \"A command's completion is found by its number\" rests on, an entry lives at its number mod the array's length",
		edits: []edit{{"internal/seqwin/ring.go",
			"\tmask := uint64(len(old) - 1)\n\tfor i := r.base; i < r.end; i++ {\n\t\tr.buf[r.pos(i)] = old[uint64(i)&mask]\n\t}\n",
			"\tcopy(r.buf, old)\n"}},
		pkg: "./internal/seqwin/", run: "TestRingMatchesMapReference"},
	{name: "delivered-drops-out-of-order", note: "a checkpoint's dedup summary keeps each proposer's contiguous prefix and loses the values applied out of order above it, so one of them chosen again after the checkpoint is applied twice by a replica restarted from it; fixed beside \"A command's completion is found by its number\"",
		edits: []edit{{"internal/paxos/engine.go",
			"\t\t\tfor _, s := range got.Over {\n",
			"\t\t\tfor _, s := range got.Over[:0] {\n"}},
		pkg: "./internal/core/", run: "TestDuplicateAcrossCheckpointAppliedOnce"},
	{name: "checkpoint-absorbs-own-values", note: "a replica that installs another's checkpoint leaves its own incarnation's values the checkpoint applied outstanding: the engine retries them for ever and keeps their in-flight slots, so MaxInFlight of them stop its proposer, and their completions never fire; fixed beside \"The bookstore loads in bulk\"",
		edits: []edit{{"internal/paxos/engine.go",
			"\t\tif pv.live() && en.isDelivered(pv.v.ID) {\n",
			"\t\tif false && pv.live() && en.isDelivered(pv.v.ID) {\n"}},
		pkg: "./internal/core/", run: "TestRemoteSnapshotSettlesOwnValues"},
	{name: "restored-branch-unreported", note: "a replica that installs another's checkpoint takes in its prepared branches without reporting them to OnTxnStaged, so a member cut off while a branch was staged never arms the branch's resolution loop; fixed beside \"A cross-shard write has one shape\"",
		edits: []edit{{"internal/core/replica.go",
			"\tr.maybeRecovered()\n\tr.reportStaged()\n}\n",
			"\tr.maybeRecovered()\n}\n"}},
		pkg: "./internal/core/", run: "TestRemoteCheckpointReportsStagedBranch"},
}

// row returns the mutant named name.
func row(name string) mutant {
	for _, m := range mutants {
		if m.name == name {
			return m
		}
	}
	panic("no mutant " + name)
}

// A column is one check, run on a mutant's build: it reports whether the
// check failed there, which kills the mutant.
type column struct {
	name string
	full bool // runs only under -full
	run  func(t *testing.T, m mutant, overlay string) bool
}

var columns = []column{
	{name: "directed", run: directed},
	{name: "safety", full: true, run: func(t *testing.T, _ mutant, ov string) bool {
		return fails(t, "test", "-overlay", ov, "-timeout", "5m", "-run", "^TestPaxosSafety", "./internal/sim/")
	}},
	{name: "random", full: true, run: func(t *testing.T, _ mutant, ov string) bool {
		return fails(t, "test", "-overlay", ov, "-timeout", "5m", "-run", "^TestRandomFaultSchedules$", "./internal/paxos/")
	}},
	{name: "hunt", full: true, run: func(t *testing.T, _ mutant, ov string) bool {
		size := "-short"
		if *huntBudget > 0 {
			size = "-budget=" + strconv.Itoa(*huntBudget)
		}
		return fails(t, "run", "-overlay", ov, "./cmd/experiment", "-run", "hunt", size)
	}},
}

// directed runs a row's directed tests. The control row runs every row's,
// one go test per package, so each is known to pass on the code as it stands.
func directed(t *testing.T, m mutant, ov string) bool {
	if m.edits != nil {
		return fails(t, "test", "-overlay", ov, "-run", "^("+m.run+")$", m.pkg)
	}
	var pkgs []string
	runs := map[string][]string{}
	for _, r := range mutants[1:] {
		if runs[r.pkg] == nil {
			pkgs = append(pkgs, r.pkg)
		}
		runs[r.pkg] = append(runs[r.pkg], r.run)
	}
	failed := false
	for _, pkg := range pkgs {
		failed = fails(t, "test", "-overlay", ov, "-run", "^("+strings.Join(runs[pkg], "|")+")$", pkg) || failed
	}
	return failed
}

// root is the repository's root, where the child go commands run.
const root = "../.."

// goCmd runs the go command at the repository's root. go test puts its own
// toolchain first on the PATH, so the child builds with the toolchain that
// built this test. A go test child's result is cached like any other: the
// cache key covers the mutated files.
func goCmd(args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// fails runs a check and reports whether it failed. A build that fails (go
// run prints a "# package" line first, go test a "[build failed]" verdict) is
// the harness's error, never a kill.
func fails(t *testing.T, args ...string) bool {
	t.Helper()
	out, err := goCmd(args...)
	var exit *exec.ExitError
	switch {
	case err == nil:
		return false
	case !errors.As(err, &exit):
		t.Fatalf("go %s: %v", strings.Join(args, " "), err)
	case strings.HasPrefix(out, "# ") || strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
		t.Fatalf("go %s: the mutated build does not compile (a harness error, not a kill):\n%s", strings.Join(args, " "), out)
	}
	return true
}

// writeOverlay applies m's edits to the files as they stand, writes the
// mutated files under dir with the overlay file that names them, compiles the
// packages they belong to, and returns the overlay file. It refuses, naming
// the row, an edit whose old text does not occur exactly once (the file has
// moved on, and the row must be rewritten against it) and mutated packages
// that do not compile.
func writeOverlay(m mutant, dir string) (string, error) {
	srcs := map[string]string{}
	var files []string
	for _, e := range m.edits {
		src, ok := srcs[e.file]
		if !ok {
			b, err := os.ReadFile(filepath.Join(root, e.file))
			if err != nil {
				return "", fmt.Errorf("row %s (%s): %v", m.name, m.note, err)
			}
			src = string(b)
			files = append(files, e.file)
		}
		if n := strings.Count(src, e.old); n != 1 {
			return "", fmt.Errorf("row %s (%s): its edit's text occurs %d times in %s, want once:\n%s", m.name, m.note, n, e.file, e.old)
		}
		srcs[e.file] = strings.Replace(src, e.old, e.new, 1)
	}
	ov := filepath.Join(dir, "overlay.json")
	replace := map[string]string{}
	build := []string{"build", "-overlay", ov}
	for i, f := range files {
		path, err := filepath.Abs(filepath.Join(root, f))
		if err != nil {
			return "", err
		}
		replace[path] = filepath.Join(dir, fmt.Sprintf("%d-%s", i, filepath.Base(f)))
		if err := os.WriteFile(replace[path], []byte(srcs[f]), 0o644); err != nil {
			return "", err
		}
		if pkg := "./" + filepath.Dir(f); !slices.Contains(build, pkg) {
			build = append(build, pkg)
		}
	}
	b, err := json.Marshal(map[string]any{"Replace": replace})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(ov, b, 0o644); err != nil {
		return "", err
	}
	if len(files) > 0 {
		if out, err := goCmd(build...); err != nil {
			return "", fmt.Errorf("row %s (%s): the mutated build does not compile (a harness error, not a kill):\n%s", m.name, m.note, out)
		}
	}
	return ov, nil
}

// TestOverlayRefusesBadRows: a row whose edit no longer matches its file
// exactly once, or whose mutated file does not compile, fails naming itself
// and never reaches a column.
func TestOverlayRefusesBadRows(t *testing.T) {
	const file = "internal/paxos/wal.go"
	for _, bad := range []struct {
		m    mutant
		want string
	}{
		{mutant{name: "drifted", note: "text edited away", edits: []edit{{file, "no such text", ""}}},
			"row drifted (text edited away): its edit's text occurs 0 times"},
		{mutant{name: "ambiguous", note: "text in many places", edits: []edit{{file, "func ", "func  "}}},
			"row ambiguous (text in many places): its edit's text occurs"},
		{mutant{name: "broken", note: "a type error", edits: []edit{{file, "package paxos\n", "package paxos\n\nvar _ int = \"\"\n"}}},
			"row broken (a type error): the mutated build does not compile"},
	} {
		if _, err := writeOverlay(bad.m, t.TempDir()); err == nil || !strings.HasPrefix(err.Error(), bad.want) {
			t.Errorf("row %s: got %v, want an error starting %q", bad.m.name, err, bad.want)
		}
	}
}

// TestMutantMatrix runs every row against the columns this mode runs and
// compares the matrix with testdata/matrix.txt; a column that does not run
// keeps the file's cells. The control row must pass every column it runs.
func TestMutantMatrix(t *testing.T) {
	t.Parallel()
	const golden = "testdata/matrix.txt"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	readSources(t)
	cells := parseMatrix(string(want))
	got := make([][]string, len(mutants))
	t.Run("rows", func(t *testing.T) {
		for i, m := range mutants {
			got[i] = slices.Clone(cells[m.name])
			if len(got[i]) != len(columns) {
				got[i] = slices.Repeat([]string{"-"}, len(columns))
			}
			t.Run(m.name, func(t *testing.T) {
				t.Parallel()
				ov, err := writeOverlay(m, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for j, c := range columns {
					if c.full && !*full {
						continue
					}
					if c.run(t, m, ov) {
						got[i][j] = "killed"
					} else {
						got[i][j] = "survives"
					}
					if m.edits == nil && got[i][j] != "survives" {
						t.Errorf("the control row fails the %s column: a check fails on the code as it stands", c.name)
					}
				}
			})
		}
	})
	if t.Failed() {
		return
	}
	text := renderMatrix(got)
	if *update {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if text != string(want) {
		t.Errorf("kill matrix differs from %s (a cell that flips to survives must say why):\n%s", golden, lineDiff(string(want), text))
	}
}

// lineDiff prints the lines of want and got that differ, in order.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "- %s\n+ %s\n", wl, gl)
		}
	}
	return b.String()
}

// readSources reads every Go file of the module. The children's checks are
// this test's inputs, and go test caches its result keyed on the files it
// opens: without this, a change to a directed test would leave the matrix's
// cached pass standing.
func readSources(t *testing.T) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// renderMatrix prints the matrix: a header, then a row per mutant.
func renderMatrix(got [][]string) string {
	var b strings.Builder
	line := func(name string, cells []string) {
		l := fmt.Sprintf("%-28s", name)
		for _, c := range cells {
			l += fmt.Sprintf(" %-9s", c)
		}
		b.WriteString(strings.TrimRight(l, " ") + "\n")
	}
	var head []string
	for _, c := range columns {
		head = append(head, c.name)
	}
	line("mutant", head)
	for i, m := range mutants {
		line(m.name, got[i])
	}
	return b.String()
}

// parseMatrix reads each row's cells from a rendered matrix.
func parseMatrix(text string) map[string][]string {
	cells := map[string][]string{}
	for _, l := range strings.Split(text, "\n")[1:] {
		if f := strings.Fields(l); len(f) > 0 {
			cells[f[0]] = f[1:]
		}
	}
	return cells
}
