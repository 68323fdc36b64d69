package experiments

import (
	"fmt"
	"time"

	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/schemes"
	"slimgraph/internal/spectral"
	"slimgraph/internal/succinct"
	"slimgraph/internal/summarize"
)

// Row is one (graph, spec) pair, measured once. It is the only result shape
// of the evaluation: tables format it, Frontier marshals it, the shape
// predicates of shapes_test.go assert on it.
type Row struct {
	Graph  string `json:"graph"`
	Spec   string `json:"spec"` // canonical; "" is the uncompressed graph
	Analog string `json:"-"`
	Label  string `json:"-"` // the artifact's words for the spec
	Param  string `json:"-"`

	N  int `json:"n"`
	M  int `json:"m"`
	CN int `json:"compressedN"`
	CM int `json:"compressedM"`
	// Ratio is m'/m, the colour of Figure 5.
	Ratio   float64       `json:"ratio"`
	Elapsed time.Duration `json:"compressNs"`
	// BitsPerEdge is the size of succinct.Pack(output) over the input's edge
	// count: the lossy × lossless figure of §5, comparable across schemes.
	BitsPerEdge float64 `json:"bitsPerEdge"`
	// Slope and R2 fit the output's degree distribution to a power law.
	Slope float64 `json:"powerLawSlope"`
	R2    float64 `json:"powerLawR2"`
	// StorageEdges is what a summarize stage stores (superedges plus
	// corrections) where the output above is its decoded graph.
	StorageEdges *int `json:"storageEdges,omitempty"`
	// QuadFormError (§6.3, the worst relative error of x^T L x over eight
	// random vectors) and Quality need a shared vertex set: both are nil
	// when the scheme renumbered vertices or changed n.
	QuadFormError *float64         `json:"quadFormError,omitempty"`
	Quality       *metrics.Quality `json:"quality,omitempty"`

	// The graphs behind the numbers, for the columns that run a kernel of
	// their own on the output (Table 3's properties, Figure 5's timings).
	orig, out *graph.Graph
	workers   int
	first     *Row // the first row measured on the same graph: the base of relative cells
}

// Reduction is 1 - m'/m, the y-axis of Figure 6.
func (r Row) Reduction() float64 { return 1 - r.Ratio }

// Output returns the compressed graph the row measured.
func (r Row) Output() *graph.Graph { return r.out }

// Spec is one labelled point of an artifact.
type Spec struct {
	Label string // scheme label (or, in a wide layout, the column label)
	Param string // the paper's parameter text, where the artifact prints one
	Spec  string // registry spec; "" measures the uncompressed graph
	// Pick, when set, chooses the spec from the graph and the rows already
	// measured on it (a budget matched to an earlier row, a tuned parameter).
	Pick func(cfg Config, g *graph.Graph, prior []Row) string
}

// Column formats one cell from one Row.
type Column struct {
	Head   string
	Cell   func(Row) string
	Timing bool // a wall-clock cell: differs run to run
}

// Artifact is one table or figure of the evaluation, as data.
type Artifact struct {
	Key             string // the -only key
	ID, Title, Note string
	Graphs          func(Config) []NamedGraph
	Specs           []Spec
	// Cols give one cell per line. A line is a row — or, when PerSpec is
	// set (the wide layout), a graph: each PerSpec column then repeats once
	// per spec, its Head a format for the spec's label.
	Cols, PerSpec []Column
	// Repeats compresses this many times and keeps the fastest (§7.4).
	Repeats int
	// Static fills the table of an artifact that measures no (graph, spec)
	// pair: the low-rank baseline and the §7.5 guide.
	Static func(Config, *Table)
}

// Rows measures every (graph, spec) pair of the artifact, graph-major.
func (a Artifact) Rows(cfg Config) ([]Row, error) {
	if a.Repeats > 0 {
		cfg.repeats = a.Repeats
	}
	var rows []Row
	for _, ng := range a.Graphs(cfg) {
		start := len(rows)
		for _, sp := range a.Specs {
			r, err := evaluate(cfg, ng, sp, rows[start:])
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		first := rows[start]
		for i := start; i < len(rows); i++ {
			rows[i].first = &first
		}
	}
	return rows, nil
}

// Table measures the artifact and renders it.
func (a Artifact) Table(cfg Config) (*Table, error) {
	if a.Static != nil {
		t := &Table{ID: a.ID, Title: a.Title, Note: a.Note}
		a.Static(cfg, t)
		return t, nil
	}
	rows, err := a.Rows(cfg)
	if err != nil {
		return nil, err
	}
	return a.Render(cfg, rows), nil
}

// Render lays rows measured by Rows out as the artifact's table.
func (a Artifact) Render(cfg Config, rows []Row) *Table {
	t := &Table{ID: a.ID, Title: a.Title, Note: a.Note}
	for _, c := range a.Cols {
		t.Header = append(t.Header, c.Head)
	}
	for _, c := range a.PerSpec {
		for _, sp := range a.Specs {
			t.Header = append(t.Header, fmt.Sprintf(c.Head, sp.Label))
		}
	}
	cell := func(c Column, r Row) string {
		if c.Timing && cfg.maskTimings {
			return "~"
		}
		return c.Cell(r)
	}
	per := 1
	if len(a.PerSpec) > 0 {
		per = len(a.Specs)
	}
	for ; len(rows) >= per; rows = rows[per:] {
		var line []string
		for _, c := range a.Cols {
			line = append(line, cell(c, rows[0]))
		}
		for _, c := range a.PerSpec {
			for _, r := range rows[:per] {
				line = append(line, cell(c, r))
			}
		}
		t.AddRow(line...)
	}
	return t
}

// evaluate is the one place a compressed graph is compared with its
// original: it applies spec to the graph through the registry, seeded and
// parallelized from cfg, and measures the outcome into a Row.
func evaluate(cfg Config, ng NamedGraph, sp Spec, prior []Row) (Row, error) {
	if ng.Workers > 0 {
		cfg.Workers = ng.Workers
	}
	g := ng.G
	r := Row{Graph: ng.Key, Analog: ng.Note, Label: sp.Label, Param: sp.Param,
		N: g.N(), M: g.M(), Ratio: 1, orig: g, out: g, workers: cfg.Workers}
	spec := sp.Spec
	if sp.Pick != nil {
		spec = sp.Pick(cfg, g, prior)
	}
	shared := true
	if spec != "" {
		s, res, err := compress(cfg, g, spec)
		if err != nil {
			return r, fmt.Errorf("experiments: %s on %s: %w", spec, ng.Key, err)
		}
		r.Spec, r.out, r.Elapsed, r.Ratio = schemes.Spec(s), res.Output, res.Elapsed, res.CompressionRatio()
		shared = res.VertexMap == nil && res.Output.N() == g.N()
		if sum, ok := res.Aux.(*summarize.Summary); ok {
			stored := sum.StorageEdges()
			r.StorageEdges = &stored
		}
	}
	r.CN, r.CM = r.out.N(), r.out.M()
	if r.M > 0 {
		r.BitsPerEdge = float64(succinct.Pack(r.out, cfg.Workers).SizeBits()) / float64(r.M)
	}
	r.Slope, r.R2 = metrics.PowerLawSlope(metrics.DegreeDistribution(r.out))
	if shared {
		q, err := metrics.CompareGraphs(g, r.out, cfg.Workers)
		if err != nil {
			return r, err
		}
		qf := spectral.QuadFormError(g, r.out, 8, cfg.seed())
		r.Quality, r.QuadFormError = q, &qf
	}
	return r, nil
}

// compress builds the scheme (or pipeline) for spec through the registry and
// applies it to g, cfg.repeats times, keeping the fastest run.
func compress(cfg Config, g *graph.Graph, spec string) (schemes.Scheme, *schemes.Result, error) {
	s, err := schemes.Parse(spec, schemes.WithSeed(cfg.seed()), schemes.WithWorkers(cfg.Workers))
	if err != nil {
		return nil, nil, err
	}
	var best *schemes.Result
	for i := 0; i < max(cfg.repeats, 1); i++ {
		res, err := s.Apply(g)
		if err != nil {
			return nil, nil, err
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}
	return s, best, nil
}
