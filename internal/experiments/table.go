// Package experiments regenerates every table and figure of the paper's
// evaluation (and a set of extra validation studies), printing aligned text
// tables and optional CSV. Names lists the experiment ids; each table's
// notes carry its assumptions, the paper's reference values and caveats.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: a titled grid plus free-form notes
// (assumptions, paper reference values, caveats).
type Table struct {
	ID      string // experiment id, e.g. "fig2"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values are Sprint'ed with %v unless they
// are already strings.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = trimFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values (no notes).
func (t *Table) CSV(w io.Writer) {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		fmt.Fprintln(w, strings.Join(cells, ","))
	}
}

// Options tunes every experiment. The zero value gives the full default
// configuration; Quick shrinks everything for tests and smoke runs.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Trials scales the Monte-Carlo sample counts (default per experiment).
	Trials int
	// Iterations for training experiments (default 100, as in the paper).
	Iterations int
	// FullSize uses the paper's data scale for fig4 (p=8000 features, 100
	// points per example) instead of the laptop default (p=800, 10 points).
	FullSize bool
	// Quick shrinks sizes for CI and benchmarks.
	Quick bool
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) trials(def int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return def / 10
	}
	return def
}

func (o Options) iterations() int {
	if o.Iterations > 0 {
		return o.Iterations
	}
	if o.Quick {
		return 10
	}
	return 100
}
