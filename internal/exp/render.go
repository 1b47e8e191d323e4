package exp

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"robuststore/internal/stats"
)

// This file is the one renderer of the experiment table. An entry's report
// is a list of typed cells — every value it prints, with the entry, table,
// row and column it stands at — and the layout that prints them, in order:
// lines whose templates their cells fill, tables whose columns are each
// stated once, and the WIPS histogram figure. The layouts of format.go, and
// the suites that lay out their cells as they run, add cells and layout;
// render writes them.

// A cell is one value a report prints: a float64, or a string where the
// report prints words.
type cell struct {
	entry, table, row, col string
	value                  any
}

// A cell is its own fmt operand: templates and columns print it directly.
var _ fmt.Formatter = cell{}

// Format prints the cell under any fmt verb: a number as the verb says
// (%d as an integer), words as %s at the verb's width and alignment, and a
// missing cell as zero.
func (c cell) Format(f fmt.State, verb rune) {
	if s, ok := c.value.(string); ok {
		w, _ := f.Width()
		if f.Flag('-') {
			w = -w
		}
		fmt.Fprintf(f, "%*s", w, s)
		return
	}
	v, _ := c.value.(float64)
	if verb == 'd' {
		fmt.Fprintf(f, fmt.FormatString(f, verb), int64(v))
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), v)
}

// A column is stated once: its header, the verb that prints its cells and,
// at the verb's width and alignment, the header, and the name its cells
// carry where that is not the header.
type column struct{ head, verb, name string }

func (c column) key() string { return cmp.Or(c.name, c.head) }

// A block is one piece of a report's layout: a line whose template its cells
// fill in order, a table whose rows are its cells' rows in the order they
// first appear, or a run's WIPS histogram.
type block struct {
	line  string
	cols  []column
	cells []cell
	fig   *RunResult
}

// A report is an entry's layout and, in its blocks, its cells. table names
// the table the cells added next belong to; err is the entry's own verdict.
type report struct {
	entry, table string
	blocks       []block
	err          error
}

// entry is an experiment of the table: its run lays out the report build
// makes and renders it.
func entry(name, doc string, build func(Params, *report)) Experiment {
	return Experiment{name, doc, func(p Params, w io.Writer) error {
		rep := &report{entry: name}
		build(p, rep)
		return cmp.Or(rep.render(w), rep.err)
	}}
}

// cell types v: an integer becomes a float64, a string stays words.
func (rep *report) cell(row, col string, v any) cell {
	switch x := v.(type) {
	case int:
		v = float64(x)
	case int64:
		v = float64(x)
	case float64, string:
	default:
		panic(fmt.Sprintf("exp: a cell of %T", v))
	}
	return cell{rep.entry, rep.table, row, col, v}
}

// line adds a line whose template format the cells of args fill: args
// alternate column names and values, as slog's do.
func (rep *report) line(row, format string, args ...any) {
	b := block{line: format}
	for i := 0; i < len(args); i += 2 {
		b.cells = append(b.cells, rep.cell(row, args[i].(string), args[i+1]))
	}
	rep.blocks = append(rep.blocks, b)
}

// title names the table the cells added next belong to and prints the name
// verbatim.
func (rep *report) title(name string) {
	rep.table = name
	rep.line("", strings.ReplaceAll(name, "%", "%%"))
}

// tab starts a table.
func (rep *report) tab(cols []column) { rep.blocks = append(rep.blocks, block{cols: cols}) }

// set adds the cell at row and col to the table last started.
func (rep *report) set(row, col string, v any) {
	b := &rep.blocks[len(rep.blocks)-1]
	b.cells = append(b.cells, rep.cell(row, col, v))
}

// row adds a row to the table last started: vals fill its last len(vals)
// columns, so a row that leaves the first out prints its name there; a nil
// value adds no cell.
func (rep *report) row(name string, vals ...any) {
	cols := rep.blocks[len(rep.blocks)-1].cols
	for i, v := range vals {
		if v != nil {
			rep.set(name, cols[len(cols)-len(vals)+i].key(), v)
		}
	}
}

func (rep *report) fig(r RunResult) { rep.blocks = append(rep.blocks, block{fig: &r}) }

// render writes the report. A table prints its header line, then each row:
// every column's cell, zero where the row has none and, in the first column,
// the row's name; a row with no cell at all is not printed.
func (rep *report) render(w io.Writer) error {
	var out []byte
	for _, b := range rep.blocks {
		switch {
		case b.fig != nil:
			out = histogram(out, *b.fig)
		case b.cols == nil:
			args := make([]any, len(b.cells))
			for i, c := range b.cells {
				args[i] = c
			}
			out = fmt.Appendf(out, b.line+"\n", args...)
		default:
			var rows []string
			at := map[[2]string]cell{}
			for _, c := range b.cells {
				if !slices.Contains(rows, c.row) {
					rows = append(rows, c.row)
				}
				at[[2]string{c.row, c.col}] = c
			}
			for _, col := range b.cols {
				out = fmt.Appendf(out, col.verb, cell{value: col.head})
			}
			out = append(out, '\n')
			for _, row := range rows {
				for i, col := range b.cols {
					c, ok := at[[2]string{row, col.key()}]
					if !ok && i == 0 {
						c.value = row
					}
					out = fmt.Appendf(out, col.verb, c)
				}
				out = append(out, '\n')
			}
		}
	}
	_, err := w.Write(out)
	return err
}

// histogram appends a Figures 5/7/8 panel: the per-second WIPS series of one
// run as a text sparkline with crash/recovery markers, binned to fit a
// terminal.
func histogram(out []byte, r RunResult) []byte {
	out = fmt.Appendf(out, "WIPS histogram — %s, %d replicas, %s (c=crash, r=recovered)\n",
		r.Cfg.Profile, r.Cfg.Servers, r.Cfg.Fault.Name)
	const cols, rows = 120, 12
	n := len(r.Series)
	if n == 0 {
		return out
	}
	bin := (n + cols - 1) / cols
	// Scale to the 99th percentile so one outlier bucket does not
	// flatten the plot.
	peak := max(stats.Percentile(r.Series, 99), 1)
	width := (n + bin - 1) / bin
	grid := make([][]byte, rows)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	for c := range width {
		h := min(int(stats.Mean(r.Series[c*bin:min(n, (c+1)*bin)])/peak*rows), rows-1)
		for y := 0; y <= h; y++ {
			grid[rows-1-y][c] = '#'
		}
	}
	for _, row := range grid {
		out = fmt.Appendf(out, "|%s\n", row)
	}
	marks := []byte(strings.Repeat("-", width))
	mark := func(secs []float64, c byte) {
		for _, s := range secs {
			if i := int(s) / bin; i >= 0 && i < len(marks) {
				marks[i] = c
			}
		}
	}
	mark(r.CrashSec, 'c')
	mark(r.RecoverySec, 'r')
	return fmt.Appendf(out, "+%s  (0..%ds, peak %.0f WIPS)\n", marks, n, peak)
}
