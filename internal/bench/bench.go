// Package bench is the experiment harness: it contains one registered
// experiment per table row / quantitative claim of the paper (the
// experiment index in DESIGN.md) and renders measured-vs-paper comparison
// tables. Its samplers (SampleDispersion, SampleTotalSteps, MeanDispersion)
// run every process by registry name through dispersion.Engine, the same
// trial loop the server, the shard coordinator and perfbench run. Every
// experiment is deterministic given (seed, scale).
package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Config controls an experiment run.
type Config struct {
	// Seed roots all randomness; equal seeds reproduce results exactly.
	Seed uint64
	// Scale in (0, 1] shrinks trial counts and graph sizes for smoke
	// runs; 1.0 is the full configuration recorded in EXPERIMENTS.md.
	Scale float64
	// Out receives progress output; nil silences it.
	Out io.Writer
}

func (c Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

// scaled shrinks an integer quantity by the config scale with a floor.
func (c Config) scaled(full, min int) int {
	s := c.Scale
	if s <= 0 || s > 1 {
		s = 1
	}
	v := int(float64(full) * s)
	if v < min {
		v = min
	}
	return v
}

// Table is a rendered result grid.
type Table struct {
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of already formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
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
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
}

// WriteCSV writes the table as RFC-4180 CSV (header row first), for
// downstream plotting.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Report is the outcome of one experiment.
type Report struct {
	Table   *Table
	Notes   []string
	Pass    bool
	Summary string
}

// Experiment couples a paper claim with the code that checks it.
type Experiment struct {
	ID     string // e.g. "E01"
	Title  string
	Source string // paper reference (table row / theorem)
	Claim  string // the quantitative statement being reproduced
	Run    func(cfg Config) (*Report, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every registered experiment in ID order.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunAll executes every experiment and writes a full report to w,
// returning the number of failed experiments.
func RunAll(cfg Config, w io.Writer) int {
	failed := 0
	for _, e := range All() {
		fmt.Fprintf(w, "\n=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprintf(w, "source: %s\nclaim:  %s\n\n", e.Source, e.Claim)
		rep, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(w, "ERROR: %v\n", err)
			failed++
			continue
		}
		if rep.Table != nil {
			rep.Table.Render(w)
		}
		for _, n := range rep.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
		verdict := "PASS"
		if !rep.Pass {
			verdict = "CHECK"
			failed++
		}
		fmt.Fprintf(w, "  %s: %s\n", verdict, rep.Summary)
	}
	return failed
}
