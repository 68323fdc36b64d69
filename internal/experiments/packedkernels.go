package experiments

import (
	"fmt"
	"time"

	"slimgraph/internal/centrality"
	"slimgraph/internal/gen"
	"slimgraph/internal/metrics"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// PackedKernels measures the packed-execution story: per locality ordering,
// the gap-payload bits per edge the relabel buys, and the packed-vs-raw
// runtime ratio of every kernel running on the PackedGraph in place — the
// serving layer's no-Unpack query paths. "tri" includes the oriented-engine
// build (the server amortizes it per catalog entry); every kernel's result
// is bit-identical between representations.
func PackedKernels(cfg Config) *Table {
	t := &Table{
		ID:    "packed",
		Title: "Packed kernels: locality orderings × packed-vs-raw runtime",
		Note: "degree/BFS/window relabels shrink payload bits/edge vs none; packed " +
			"kernels stay within a small factor of raw (triangles within 2x: the " +
			"engine ingests canonical edge columns, not per-neighbor decodes)",
		Header: []string{"graph", "order", "payload b/e", "total b/e", "gap bits",
			"tri", "deg", "bfs", "pagerank"},
	}
	b := cfg.boost()
	graphs := []NamedGraph{
		{"s-pok", "R-MAT social ef16", gen.RMAT(cfg.rmatScale(11), 16, 0.57, 0.19, 0.19, cfg.seed()+71)},
		{"s-frs", "Barabási–Albert k=8", gen.BarabasiAlbert(3000*b, 8, cfg.seed()+72)},
		{"v-usa", "2-D grid road network", gen.Grid2D(45*b, 45*b, false)},
	}
	orders := []succinct.Order{succinct.OrderNone, succinct.OrderDegree, succinct.OrderBFS, succinct.OrderWindow}
	for _, ng := range graphs {
		g := ng.G
		rawTri := measure(func() { triangles.Count(g, cfg.Workers) })
		rawDeg := measure(func() { metrics.DegreeDistribution(g) })
		rawBFS := measure(func() { traverse.BFS(g, 0, cfg.Workers) })
		rawPR := measure(func() {
			centrality.PageRank(g, centrality.PageRankOptions{Workers: cfg.Workers})
		})
		for _, o := range orders {
			pg := succinct.Pack(g, cfg.Workers, succinct.WithOrder(o))
			hist := succinct.GapHistogram(g, pg.Perm(), cfg.Workers)
			pTri := measure(func() { triangles.Count(pg, cfg.Workers) })
			pDeg := measure(func() { metrics.DegreeDistribution(pg) })
			pBFS := measure(func() { traverse.BFS(pg, 0, cfg.Workers) })
			pPR := measure(func() {
				centrality.PageRank(pg, centrality.PageRankOptions{Workers: cfg.Workers})
			})
			payloadBE, totalBE := 0.0, 0.0
			if g.M() > 0 {
				payloadBE = float64(hist.PayloadBytes) * 8 / float64(g.M())
				totalBE = float64(pg.SizeBits()) / float64(g.M())
			}
			t.AddRow(ng.Key, o.String(), f1(payloadBE), f1(totalBE), f1(hist.MeanBits()),
				ratio(pTri, rawTri), ratio(pDeg, rawDeg), ratio(pBFS, rawBFS), ratio(pPR, rawPR))
		}
	}
	return t
}

// ratio formats packed/raw as a multiplier, "-" when raw was too fast to
// time.
func ratio(packed, raw time.Duration) string {
	if raw <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(packed)/float64(raw))
}
