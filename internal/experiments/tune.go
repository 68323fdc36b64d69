package experiments

import (
	"fmt"
	"math"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/spectral"
)

// tune probes n specs on g and returns the one whose compression ratio lands
// nearest target. next proposes probe i from the previous probe's ratio.
func tune(cfg Config, g *graph.Graph, target float64, n int, next func(i int, last float64) string) string {
	best, bestGap, last := "", math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		spec := next(i, last)
		_, res, err := compress(cfg, g, spec)
		if err != nil {
			panic(fmt.Sprintf("experiments: tune %q: %v", spec, err)) // the specs are compiled in
		}
		last = res.CompressionRatio()
		if gap := math.Abs(last - target); gap < bestGap {
			best, bestGap = spec, gap
		}
	}
	return best
}

// tuneSpectral bisects the keep parameter geometrically toward a 0.7 ratio.
func tuneSpectral(cfg Config, g *graph.Graph, _ []Row) string {
	lo, hi, mid := 0.01, 64.0, 0.0
	return tune(cfg, g, 0.7, 12, func(i int, last float64) string {
		if i > 0 && last < 0.7 {
			lo = mid // keep more
		} else if i > 0 {
			hi = mid
		}
		mid = math.Sqrt(lo * hi)
		return fmt.Sprintf("spectral:p=%g", mid)
	})
}

// tuneTR sweeps the TR sampling probability toward a 0.7 ratio (TR cannot
// exceed the triangle-bound reduction, so it may fall short on sparse
// graphs; the achieved ratio column makes that visible).
func tuneTR(cfg Config, g *graph.Graph, _ []Row) string {
	return tune(cfg, g, 0.7, 5, func(i int, _ float64) string {
		return fmt.Sprintf("tr:p=%g", 0.2*float64(i+1))
	})
}

// lowRankRuns measures the §7.4 baseline: the clustered SVD approximation at
// three ranks on two graphs. It compresses with no registry scheme, so it is
// a table of its own rather than rows.
func lowRankRuns(cfg Config) (graphs []string, runs []*spectral.LowRankResult) {
	b := cfg.boost()
	for _, ng := range []NamedGraph{
		{Key: "s-pok", Note: "R-MAT ef8", G: gen.RMAT(cfg.rmatScale(9), 8, 0.57, 0.19, 0.19, cfg.seed()+111)},
		{Key: "s-cds", Note: "planted communities", G: gen.PlantedPartition(200*b, 25, 0.6, 300*b, cfg.seed()+112)},
	} {
		for _, rank := range []int{2, 8, 16} {
			graphs = append(graphs, ng.Key)
			runs = append(runs, spectral.LowRankApprox(ng.G, 64, rank, cfg.seed()))
		}
	}
	return graphs, runs
}

func lowRank(cfg Config, t *Table) {
	t.Header = []string{"graph", "cluster", "rank", "error rate", "FP", "FN", "floats stored"}
	graphs, runs := lowRankRuns(cfg)
	for i, res := range runs {
		t.AddRow(graphs[i], "64", d2(res.Rank), f3(res.ErrorRate()),
			d2(int(res.FalsePositives)), d2(int(res.FalseNegatives)), d2(int(res.StorageFloats)))
	}
}
