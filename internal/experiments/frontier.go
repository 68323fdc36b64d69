package experiments

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"slimgraph/internal/schemes"
)

// Frontier is the accuracy frontier of the whole registry: one Row per
// (graph, sweep point), and per (graph, metric) the Pareto set of rows no
// other row beats on both packed bits/edge and that metric's loss.
type Frontier struct {
	Scale  int      `json:"scale"`
	Seed   uint64   `json:"seed"`
	Note   string   `json:"note"`
	Rows   []Row    `json:"rows"`
	Pareto []Pareto `json:"pareto"`
}

// Pareto is one frontier: its points in increasing bits/edge, decreasing loss.
type Pareto struct {
	Graph  string        `json:"graph"`
	Metric string        `json:"metric"`
	Points []ParetoPoint `json:"points"`
}

// ParetoPoint names a frontier row by its spec.
type ParetoPoint struct {
	Spec        string  `json:"spec"`
	BitsPerEdge float64 `json:"bitsPerEdge"`
	Loss        float64 `json:"loss"`
}

// losses are the frontier's metrics, each a loss (0 is the original's answer)
// read off a row's Quality; rows without one are on no frontier.
var losses = []struct {
	Name string
	Of   func(Row) float64
}{
	{"klPageRank", func(r Row) float64 { return r.Quality.KLPageRank }},
	{"reorderedPairs", func(r Row) float64 { return r.Quality.ReorderedPairs }},
	{"componentsAdded", func(r Row) float64 {
		return math.Abs(float64(r.Quality.CompressedComponents - r.Quality.Components))
	}},
	{"triangleRelErr", func(r Row) float64 {
		return math.Abs(float64(r.Quality.CompressedTriangles-r.Quality.Triangles)) /
			math.Max(float64(r.Quality.Triangles), 1)
	}},
	{"bfsCriticalLost", func(r Row) float64 { return 1 - r.Quality.BFSRetention }},
	{"degreeDistance", func(r Row) float64 { return r.Quality.DegreeDistance }},
	{"quadFormError", func(r Row) float64 { return *r.QuadFormError }},
}

// frontierNote is what the rows say about spectral sparsification against
// uniform sampling at the nearest equal m (shapes["frontier"] asserts the
// part that holds on both graphs).
const frontierNote = "spectral vs uniform at equal m: spectral adds no more components on either graph " +
	"(rmat14: +0 vs +2869 at ratio 0.3) but loses on PageRank KL on the skewed one (0.131 vs 0.028) and " +
	"ties on the grid, where a constant min-degree makes it uniform sampling; it also packs ~1 bit/edge worse"

// Sweep returns the specs Frontier measures for one registration: every
// parameter at its default, then one parameter at a time over the values its
// table row implies — every value of a Bool or Enum; nine evenly spaced
// interior points of a closed numeric range; for a range open at either end,
// the default (1 where it is auto or zero) times 2^-3 … 2^3. Ints round, and
// values the range refuses are dropped.
func Sweep(reg schemes.Registration) []string {
	specs := []string{reg.Name}
	for _, p := range reg.Params {
		if p.Sugar != nil {
			continue // a Sugar value is another registration, swept under its own name
		}
		values := p.Values
		switch p.Kind {
		case schemes.Bool:
			values = []string{"false", "true"}
		case schemes.Float, schemes.Int:
			for _, x := range ladder(p) {
				if p.Kind == schemes.Int {
					x = math.Round(x)
				}
				if x >= p.Min && x <= p.Max {
					values = append(values, strconv.FormatFloat(x, 'g', -1, 64))
				}
			}
		}
		for _, v := range values {
			specs = append(specs, reg.Name+":"+p.Key+"="+v)
		}
	}
	return specs
}

func ladder(p schemes.Param) (xs []float64) {
	if !math.IsInf(p.Max-p.Min, 0) {
		for i := 1; i <= 9; i++ {
			xs = append(xs, p.Min+(p.Max-p.Min)*float64(i)/10)
		}
		return xs
	}
	anchor, _ := strconv.ParseFloat(p.Default, 64)
	if !(anchor > 0) {
		anchor = 1
	}
	for e := -3; e <= 3; e++ {
		xs = append(xs, anchor*math.Pow(2, float64(e)))
	}
	return xs
}

// MeasureFrontier sweeps every registered scheme on the two graphs
// internal/schemes pins its outputs on.
func MeasureFrontier(cfg Config) (*Frontier, error) {
	f := &Frontier{Scale: cfg.Scale, Seed: cfg.seed(), Note: frontierNote}
	var sweep Artifact
	sweep.Graphs = frontierGraphs
	seen := map[string]bool{}
	for _, name := range schemes.Names() {
		reg, _ := schemes.Lookup(name)
		for _, spec := range Sweep(reg) {
			s, err := schemes.Parse(spec)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep of %s: %w", name, err)
			}
			if canon := schemes.Spec(s); !seen[canon] {
				seen[canon] = true
				sweep.Specs = append(sweep.Specs, Spec{Label: name, Spec: spec})
			}
		}
	}
	var err error
	if f.Rows, err = sweep.Rows(cfg); err != nil {
		return nil, err
	}
	for start := 0; start < len(f.Rows); start += len(sweep.Specs) {
		group := f.Rows[start : start+len(sweep.Specs)]
		for _, loss := range losses {
			f.Pareto = append(f.Pareto, Pareto{Graph: group[0].Graph, Metric: loss.Name,
				Points: paretoSet(group, loss.Of)})
		}
	}
	return f, nil
}

// paretoSet returns the rows no other row beats on both bits/edge and loss.
func paretoSet(rows []Row, loss func(Row) float64) []ParetoPoint {
	var pts []ParetoPoint
	for _, r := range rows {
		if r.Quality != nil {
			pts = append(pts, ParetoPoint{Spec: r.Spec, BitsPerEdge: r.BitsPerEdge, Loss: loss(r)})
		}
	}
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].BitsPerEdge != pts[j].BitsPerEdge {
			return pts[i].BitsPerEdge < pts[j].BitsPerEdge
		}
		return pts[i].Loss < pts[j].Loss
	})
	kept := pts[:0]
	for _, p := range pts {
		if len(kept) == 0 || p.Loss < kept[len(kept)-1].Loss {
			kept = append(kept, p)
		}
	}
	return kept
}
