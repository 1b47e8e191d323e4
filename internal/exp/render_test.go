package exp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"robuststore/internal/rbe"
)

// cellAt returns rep's cell at table, row and col, failing t when there is
// none.
func cellAt(t *testing.T, rep *report, table, row, col string) cell {
	t.Helper()
	for _, b := range rep.blocks {
		for _, c := range b.cells {
			if c.table == table && c.row == row && c.col == col {
				return c
			}
		}
	}
	t.Fatalf("no cell at table %q, row %q, column %q", table, row, col)
	return cell{}
}

// num returns the number of rep's cell at table, row and col.
func num(t *testing.T, rep *report, table, row, col string) float64 {
	t.Helper()
	v, ok := cellAt(t, rep, table, row, col).value.(float64)
	if !ok {
		t.Fatalf("the cell at table %q, row %q, column %q holds no number", table, row, col)
	}
	return v
}

// TestRenderer lays out hand-built cells through an entry and holds what it
// writes to what fmt writes for the same values under the same verbs: a
// value wider than its column pushes the row right, words print at a verb's
// width and alignment, a missing cell prints zero, a matrix row whose runs
// are all missing is not printed, and a time never reached prints as words.
func TestRenderer(t *testing.T) {
	var rep *report
	e := entry("hand", "hand-built cells", func(_ Params, r *report) {
		rep = r
		r.title("Widths (%)")
		r.line("label", "%-10s%8.0f", "label", "browsing WIPS", "4", 1144.0)
		r.tab([]column{{"group", "%-10d", ""}, {"mode", " %-12s", ""}, {"errors", " %7d", ""}, {"CV", " %6.2f", "ff CV"}})
		r.row("0", "full", 3, 0.25)
		r.row("aggregate", "incremental", int64(12345678), nil)
		accuracy(r, "Acc", map[string]RunResult{matrixKey(5, rbe.Shopping): {Accuracy: 99.5}})
		partitionBench(r, PartitionBenchPoint{DetectSec: -1, ReabsorbSec: 0.72, FFAWIPS: 300, WindowAWIPS: 250, PostAWIPS: 299.5})
		r.err = errors.New("the entry's verdict")
	})
	var got bytes.Buffer
	if err := e.Run(Params{}, &got); err == nil || err.Error() != "the entry's verdict" {
		t.Errorf("Run = %v, want the entry's verdict", err)
	}
	want := "Widths (%)\n" +
		fmt.Sprintf("%-10s%8.0f\n", "browsing WIPS", 1144.0) +
		fmt.Sprintf("%-10s %-12s %7s %6s\n", "group", "mode", "errors", "CV") +
		fmt.Sprintf("%-10d %-12s %7d %6.2f\n", 0, "full", 3, 0.25) +
		fmt.Sprintf("%-10s %-12s %7d %6.2f\n", "aggregate", "incremental", 12345678, 0.0) +
		"Acc\n" +
		fmt.Sprintf("%-9s %10s %10s %10s\n", "replicas", "browsing", "shopping", "ordering") +
		fmt.Sprintf("%-9d %10.3f %10.3f %10.3f\n", 5, 0.0, 99.5, 0.0) +
		"Partition recovery — leader isolated, no crash\n" +
		"  detection+failover: never (within the run) (throughput back ≥70% of failure-free)\n" +
		"  post-heal reabsorb: 0.7 s\n" +
		"  AWIPS failure-free 300.0, during window 250.0, after heal 299.5\n"
	if got.String() != want {
		t.Errorf("rendered (-want +got):\n%s", lineDiff(want, got.String()))
	}

	c := cellAt(t, rep, "Widths (%)", "aggregate", "errors")
	if c.entry != "hand" || c.value != 12345678.0 {
		t.Errorf("cell %+v, want entry hand and the count as a float64", c)
	}
	if v := cellAt(t, rep, "Widths (%)", "0", "mode").value; v != "full" {
		t.Errorf("mode cell = %v, want the words", v)
	}
	if v := num(t, rep, "Widths (%)", "label", "4"); v != 1144 {
		t.Errorf("line cell = %v, want 1144", v)
	}
	if v := cellAt(t, rep, "Partition recovery — leader isolated, no crash", "", "detection+failover").value; v != "never (within the run)" {
		t.Errorf("detection cell = %v, want the words for a time never reached", v)
	}
	for _, b := range rep.blocks {
		for _, c := range b.cells {
			if c.table == "Acc" && (c.row != "5" || c.col != "shopping") {
				t.Errorf("the matrix holds a cell for a missing run: %+v", c)
			}
		}
	}
}
