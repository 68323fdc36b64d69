// Package experiments is the paper's evaluation (§7) on synthetic analogs of
// its datasets, through one evaluator. A (graph, spec) pair is measured once,
// by evaluate, into one typed Row: sizes before and after, compress time,
// packed bits/edge, the degree power-law fit, the spectral quadratic-form
// error and the whole metrics.Quality. Everything else renders rows: an
// Artifact is data — a graph set, labelled specs and columns that each format
// one Row — and Artifacts lists every table and figure cmd/slimbench prints;
// Compare lines up arbitrary registry specs the same way; Frontier sweeps
// every registered scheme over its parameter table and reports the Pareto
// sets against bits/edge; shapes_test.go states the paper's shape claims as
// predicates over rows and runs them at smoke scale.
// The timings some tables carry (Figure 5, §7.4) are the paper's relative
// speedups; the repository's performance record is benchmark/ alone.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Config controls experiment sizing and determinism.
type Config struct {
	// Scale selects graph sizes: 0 = smoke (seconds, used by tests),
	// 1 = paper-shape runs (default for cmd/slimbench), 2 = large.
	Scale   int
	Seed    uint64
	Workers int

	// maskTimings prints "~" in every Timing column, so a rendering can be
	// compared byte for byte (testdata/smoke.golden).
	maskTimings bool
	// repeats is Artifact.Repeats on its way to compress.
	repeats int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 0x51139
	}
	return c.Seed
}

// boost maps Scale to a linear size multiplier (1, 4, 16) and rmatScale to
// the matching R-MAT scale offset (+0, +2, +4).
func (c Config) boost() int             { return 1 << c.rmatScale(0) }
func (c Config) rmatScale(base int) int { return base + 2*min(max(c.Scale, 0), 2) }

// Table is a printable experiment result.
type Table struct {
	ID     string // paper artifact, e.g. "Table 5"
	Title  string
	Note   string // shape expectation from the paper
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table with columns aligned by rune count.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   paper shape: %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); i < len(widths) && n > widths[i] {
				widths[i] = n
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = c
			if i < len(widths) {
				parts[i] += strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c))
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func d2(x int) string     { return fmt.Sprintf("%d", x) }
