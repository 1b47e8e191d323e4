package exp

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

const goldenAllShort = "testdata/golden/all-short.txt"

// shortParams are the golden file's parameters: cmd/experiment's defaults
// with -short. Shape tests that run an experiment at its short size use
// them too, so the run memo pays for each run once.
func shortParams() Params {
	p := DefaultParams
	p.Short = true
	return p
}

// TestExperimentTable: every entry is documented and uniquely named, none
// shadows cmd/experiment's own "all" and "hunt", and the golden file —
// which TestGoldenAllShort holds RunAll to — has one section per entry, in
// table order.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{"all": true, "hunt": true}
	var names []string
	for _, e := range Experiments {
		if e.Name == "" || e.Doc == "" || e.Run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.Name] {
			t.Errorf("experiment name %q is taken", e.Name)
		}
		seen[e.Name] = true
		names = append(names, e.Name)
	}
	golden, err := os.ReadFile(goldenAllShort)
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(golden), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			sections = append(sections, strings.TrimSuffix(name, " =="))
		}
	}
	if got, want := strings.Join(sections, " "), strings.Join(names, " "); got != want {
		t.Errorf("golden sections: %s\ntable entries:   %s", got, want)
	}
}

// TestGoldenAllShort runs every experiment at its short size and compares
// the output with the committed golden file byte for byte: the simulator
// is deterministic per seed, so any difference is a change of the model
// or of a report, and belongs in the diff of the PR that caused it.
// Regenerate with
//
//	go run ./cmd/experiment -run all -short > internal/exp/testdata/golden/all-short.txt
func TestGoldenAllShort(t *testing.T) {
	if testing.Short() {
		t.Skip("every experiment at its short size, about a minute")
	}
	want, err := os.ReadFile(goldenAllShort)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAll(shortParams(), &got); err != nil {
		t.Errorf("RunAll: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("`experiment -run all -short` no longer prints %s (-golden +now):\n%s",
			goldenAllShort, lineDiff(string(want), got.String()))
	}
}

// TestGoldenParallel runs two entries that share a memoised run — one-crash's
// fault matrix and the parallel-recovery ablation both need the five-replica
// ordering crash run — side by side, as RunAll runs the table, and holds each
// to its section of the golden file. Under -race (CI runs it so, without the
// whole golden pass) it is the check that concurrent runs share nothing they
// write: the populated prototype is only read, and a shared run is computed
// once while the other entry waits.
func TestGoldenParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("two experiments at their short size")
	}
	golden, err := os.ReadFile(goldenAllShort)
	if err != nil {
		t.Fatal(err)
	}
	var entries []Experiment
	var want []byte
	for _, e := range Experiments {
		if e.Name != "one-crash" && e.Name != "ablations" {
			continue
		}
		entries = append(entries, e)
		head := []byte("\n== " + e.Name + " ==\n")
		_, sec, found := bytes.Cut(golden, head)
		if !found {
			t.Fatalf("no section %q in %s", e.Name, goldenAllShort)
		}
		sec, _, _ = bytes.Cut(sec, []byte("\n== "))
		want = append(append(want, head...), sec...)
	}
	if len(entries) != 2 {
		t.Fatalf("found %d of the two entries in the table", len(entries))
	}
	var got bytes.Buffer
	if err := runEntries(entries, shortParams(), &got); err != nil {
		t.Errorf("runEntries: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("run side by side the two entries no longer print their golden sections (-golden +now):\n%s",
			lineDiff(string(want), got.String()))
	}
}

// lineDiff renders the lines that differ between a and b, numbered by
// their position in a, from a longest-common-subsequence alignment.
func lineDiff(a, b string) string {
	x, y := strings.Split(a, "\n"), strings.Split(b, "\n")
	// lcs[i][j] is the LCS length of x[i:] and y[j:].
	lcs := make([][]int, len(x)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(y)+1)
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := len(y) - 1; j >= 0; j-- {
			switch {
			case x[i] == y[j]:
				lcs[i][j] = lcs[i+1][j+1] + 1
			case lcs[i+1][j] >= lcs[i][j+1]:
				lcs[i][j] = lcs[i+1][j]
			default:
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var out strings.Builder
	i, j := 0, 0
	for i < len(x) || j < len(y) {
		switch {
		case i < len(x) && j < len(y) && x[i] == y[j]:
			i, j = i+1, j+1
		case j == len(y) || (i < len(x) && lcs[i+1][j] >= lcs[i][j+1]):
			fmt.Fprintf(&out, "%5d -%s\n", i+1, x[i])
			i++
		default:
			fmt.Fprintf(&out, "%5d +%s\n", i+1, y[j])
			j++
		}
	}
	return out.String()
}

func TestLineDiff(t *testing.T) {
	got := lineDiff("a\nb\nc\nd", "a\nc\nx\nd")
	if want := "    2 -b\n    4 +x\n"; got != want {
		t.Errorf("lineDiff = %q, want %q", got, want)
	}
}
