// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on synthetic analogs of the paper's datasets. Each
// exported function produces one Table whose rows mirror what the paper
// reports, with the shape the paper claims in Table.Note; cmd/slimbench
// prints them and this package's tests assert the shapes at smoke scale.
// The timings some tables carry (Figure 5, §7.4) are the paper's relative
// speedups; the repository's performance record is benchmark/ alone.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/schemes"
)

// Config controls experiment sizing and determinism.
type Config struct {
	// Scale selects graph sizes: 0 = smoke (seconds, used by tests),
	// 1 = paper-shape runs (default for cmd/slimbench), 2 = large.
	Scale   int
	Seed    uint64
	Workers int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 0x51139
	}
	return c.Seed
}

// boost maps Scale to a linear size multiplier.
func (c Config) boost() int {
	switch {
	case c.Scale <= 0:
		return 1
	case c.Scale == 1:
		return 4
	default:
		return 16
	}
}

// rmatScale maps Scale to an R-MAT scale offset.
func (c Config) rmatScale(base int) int {
	switch {
	case c.Scale <= 0:
		return base
	case c.Scale == 1:
		return base + 2
	default:
		return base + 4
	}
}

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

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   paper shape: %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
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

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// NamedGraph pairs a generated analog with the paper dataset it stands for.
type NamedGraph struct {
	Key  string // the paper's dataset symbol (Table 4)
	Note string // generator used as the analog
	G    *graph.Graph
}

// fig5Graphs returns the three graphs of Figure 5, chosen like the paper's
// to span triangle densities (T/n of s-cds=1052, s-pok=20, v-ewk=80).
func fig5Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{"s-cds", "planted communities (very high T/n)",
			gen.PlantedPartition(600*b, 25, 0.6, 600*b, cfg.seed()+1)},
		{"s-pok", "R-MAT social (moderate T/n)",
			gen.RMAT(cfg.rmatScale(10), 12, 0.57, 0.19, 0.19, cfg.seed()+2)},
		{"v-ewk", "Barabási–Albert (skewed, mid T/n)",
			gen.BarabasiAlbert(1500*b, 8, cfg.seed()+3)},
	}
}

// table5Graphs returns analogs of the five Table 5 graphs.
func table5Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{"s-you", "R-MAT sparse social", gen.RMAT(cfg.rmatScale(10), 3, 0.57, 0.19, 0.19, cfg.seed()+11)},
		{"h-hud", "R-MAT hyperlink", gen.RMAT(cfg.rmatScale(10), 8, 0.45, 0.22, 0.22, cfg.seed()+12)},
		{"l-dbl", "Watts–Strogatz collaboration", gen.WattsStrogatz(1500*b, 10, 0.2, cfg.seed()+13)},
		{"v-skt", "R-MAT internet topology", gen.RMAT(cfg.rmatScale(10), 6, 0.57, 0.19, 0.19, cfg.seed()+14)},
		{"v-usa", "2-D grid road network", gen.Grid2D(40*b, 40*b, false)},
	}
}

// table6Graphs returns analogs of the twelve Table 6 graphs, spanning
// triangle densities from road-like to community-heavy.
func table6Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{"s-you", "R-MAT ef3", gen.RMAT(cfg.rmatScale(9), 3, 0.57, 0.19, 0.19, cfg.seed()+21)},
		{"s-flx", "R-MAT ef3 mild", gen.RMAT(cfg.rmatScale(9), 3, 0.5, 0.2, 0.2, cfg.seed()+22)},
		{"s-flc", "planted dense communities", gen.PlantedPartition(400*b, 40, 0.6, 400*b, cfg.seed()+23)},
		{"s-cds", "planted denser communities", gen.PlantedPartition(400*b, 50, 0.7, 400*b, cfg.seed()+24)},
		{"s-lib", "log-normal heavy tail", gen.LogNormalDegreeGraph(1000*b, 2.2, 1.1, cfg.seed()+25)},
		{"s-pok", "R-MAT ef12", gen.RMAT(cfg.rmatScale(9), 12, 0.57, 0.19, 0.19, cfg.seed()+26)},
		{"h-dbp", "R-MAT hyperlink", gen.RMAT(cfg.rmatScale(9), 4, 0.45, 0.22, 0.22, cfg.seed()+27)},
		{"h-hud", "R-MAT hyperlink denser", gen.RMAT(cfg.rmatScale(9), 8, 0.45, 0.22, 0.22, cfg.seed()+28)},
		{"l-cit", "Watts–Strogatz beta=0.5", gen.WattsStrogatz(1000*b, 8, 0.5, cfg.seed()+29)},
		{"l-dbl", "Watts–Strogatz beta=0.1", gen.WattsStrogatz(1000*b, 10, 0.1, cfg.seed()+30)},
		{"v-ewk", "Barabási–Albert k=8", gen.BarabasiAlbert(1000*b, 8, cfg.seed()+31)},
		{"v-skt", "R-MAT ef6", gen.RMAT(cfg.rmatScale(9), 6, 0.57, 0.19, 0.19, cfg.seed()+32)},
	}
}

// fig6Graphs returns the wider graph spread of Figure 6 (left).
func fig6Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{"h-dar", "R-MAT ef8", gen.RMAT(cfg.rmatScale(9), 8, 0.45, 0.22, 0.22, cfg.seed()+41)},
		{"h-wdb", "R-MAT ef16", gen.RMAT(cfg.rmatScale(9), 16, 0.45, 0.22, 0.22, cfg.seed()+42)},
		{"h-wen", "log-normal", gen.LogNormalDegreeGraph(1200*b, 2.0, 1.0, cfg.seed()+43)},
		{"l-act", "planted communities", gen.PlantedPartition(500*b, 30, 0.5, 800*b, cfg.seed()+44)},
		{"m-twt", "R-MAT skewed ef10", gen.RMAT(cfg.rmatScale(9), 10, 0.6, 0.18, 0.18, cfg.seed()+45)},
		{"s-frs", "Barabási–Albert k=10", gen.BarabasiAlbert(1200*b, 10, cfg.seed()+46)},
		{"s-ljn", "R-MAT ef9", gen.RMAT(cfg.rmatScale(9), 9, 0.57, 0.19, 0.19, cfg.seed()+47)},
		{"s-ork", "Watts–Strogatz k=14", gen.WattsStrogatz(1000*b, 14, 0.15, cfg.seed()+48)},
		{"v-wbb", "grid with diagonals", gen.Grid2D(35*b, 35*b, true)},
	}
}

// fig7Graphs returns the three power-law graphs of Figure 7.
func fig7Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{"m-twt", "R-MAT skewed ef16", gen.RMAT(cfg.rmatScale(10), 16, 0.6, 0.18, 0.18, cfg.seed()+51)},
		{"s-frs", "Barabási–Albert k=12", gen.BarabasiAlbert(2000*b, 12, cfg.seed()+52)},
		{"h-dit", "log-normal heavy tail", gen.LogNormalDegreeGraph(2000*b, 2.4, 1.2, cfg.seed()+53)},
	}
}

// fig8Graphs returns the "largest" local graphs for the distributed run.
func fig8Graphs(cfg Config) []NamedGraph {
	return []NamedGraph{
		{"h-wdc", "R-MAT ef16 (largest local)",
			gen.RMAT(cfg.rmatScale(12), 16, 0.57, 0.19, 0.19, cfg.seed()+61)},
		{"h-deu", "R-MAT ef12", gen.RMAT(cfg.rmatScale(12), 12, 0.45, 0.22, 0.22, cfg.seed()+62)},
		{"h-duk", "R-MAT ef8", gen.RMAT(cfg.rmatScale(11), 8, 0.5, 0.2, 0.2, cfg.seed()+63)},
	}
}

// compress builds the scheme (or pipeline) for spec through the registry,
// seeded and parallelized from cfg, and applies it to g. Every experiment
// driver dispatches schemes through here, so a new scheme reaches the whole
// evaluation harness by registration alone. Specs are compiled into the
// drivers, so a failure is a programmer error and panics.
func compress(cfg Config, g *graph.Graph, spec string) *schemes.Result {
	s, err := schemes.Parse(spec, schemes.WithSeed(cfg.seed()), schemes.WithWorkers(cfg.Workers))
	if err == nil {
		var res *schemes.Result
		if res, err = s.Apply(g); err == nil {
			return res
		}
	}
	panic(fmt.Sprintf("experiments: compress %q: %v", spec, err))
}

// measure returns the best-of-three wall time of f.
func measure(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func d2(x int) string     { return fmt.Sprintf("%d", x) }
