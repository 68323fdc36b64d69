package experiments

import (
	"fmt"

	"slimgraph/internal/metrics"
)

// Figure8 reproduces the distributed lossy compression study: random
// uniform sampling of the largest local graphs with one worker per rank,
// with the degree-distribution fit before and after. The paper's
// observation: sampling "removes the clutter" while the distribution's
// overall power-law shape survives. Every random decision is keyed by the
// global edge ID (§3.2), so the rank count moves only the wall-time column.
func Figure8(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 8",
		Title:  "distributed uniform sampling of the largest graphs (simulated ranks)",
		Note:   "degree-distribution slope is roughly preserved under sampling; scattered outliers vanish",
		Header: []string{"graph", "ranks", "removal p", "m", "slope", "R^2", "wall time"},
	}
	ranksFor := []int{16, 8, 4}
	for i, ng := range fig8Graphs(cfg) {
		ranks := ranksFor[i%len(ranksFor)]
		slope, r2 := metrics.PowerLawSlope(metrics.DegreeDistribution(ng.G))
		t.AddRow(ng.Key, d2(ranks), "none", d2(ng.G.M()), f3(slope), f3(r2), "-")
		cfg.Workers = ranks
		for _, removal := range []float64{0.4, 0.7} {
			res := compress(cfg, ng.G, fmt.Sprintf("uniform:p=%.1f", 1-removal))
			slope, r2 := metrics.PowerLawSlope(metrics.DegreeDistribution(res.Output))
			t.AddRow(ng.Key, d2(ranks), fmt.Sprintf("%.1f", removal),
				d2(res.Output.M()), f3(slope), f3(r2), res.Elapsed.String())
		}
	}
	return t
}
