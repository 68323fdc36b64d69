package spectral

import (
	"math"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

func TestQuadraticFormMatchesMatVec(t *testing.T) {
	// The edge-wise sum must equal x . (D - A) x computed the long way.
	g := gen.WithUniformWeights(gen.ErdosRenyi(100, 400, 5), 1, 3, 6)
	r := rng.New(7)
	x := make([]float64, g.N())
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	dot := 0.0
	for v := range x {
		nbrs, eids := g.NeighborEdges(graph.NodeID(v))
		lx := 0.0
		for i, w := range nbrs {
			lx += g.EdgeWeight(eids[i]) * (x[v] - x[w])
		}
		dot += x[v] * lx
	}
	qf := QuadraticForm(g, x)
	if math.Abs(dot-qf) > 1e-9*math.Abs(qf) {
		t.Fatalf("x^T L x: matvec %v, edgewise %v", dot, qf)
	}
}

func TestQuadFormErrorIdenticalGraphsIsZero(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 3)
	if err := QuadFormError(g, g, 10, 1); err != 0 {
		t.Fatalf("self error %v", err)
	}
}

func TestQuadFormErrorDetectsEdgeLoss(t *testing.T) {
	g := gen.ErdosRenyi(100, 500, 3)
	// Remove half the edges with no reweighting: big spectral error.
	h := g.FilterEdges(func(e graph.EdgeID) bool { return e%2 == 0 }, nil)
	err := QuadFormError(g, h, 20, 2)
	if err < 0.2 {
		t.Fatalf("halved graph spectral error %v suspiciously low", err)
	}
}

func TestLowRankPerfectOnFullRank(t *testing.T) {
	// A clique block is rank-revealing enough: with rank == clusterSize the
	// reconstruction inside each cluster is near-exact, so errors are only
	// the inter-cluster losses.
	g := gen.Complete(12)
	res := LowRankApprox(g, 12, 12, 1)
	if res.FalseNegatives != 0 || res.FalsePositives != 0 {
		t.Fatalf("full-rank single-cluster reconstruction not exact: %+v", res)
	}
	if res.ErrorRate() != 0 {
		t.Fatalf("error rate %v", res.ErrorRate())
	}
}

func TestLowRankLosesInterClusterEdges(t *testing.T) {
	// Two cliques joined by one edge, clusters split exactly at the seam.
	edges := []graph.Edge{}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			edges = append(edges, graph.E(graph.NodeID(u), graph.NodeID(v)))
			edges = append(edges, graph.E(graph.NodeID(u+5), graph.NodeID(v+5)))
		}
	}
	edges = append(edges, graph.E(0, 5))
	g := graph.FromEdges(10, false, edges)
	res := LowRankApprox(g, 5, 5, 1)
	if res.FalseNegatives < 1 {
		t.Fatalf("inter-cluster edge not counted lost: %+v", res)
	}
}

func TestLowRankLowRankHasHighErrorOnSparse(t *testing.T) {
	// The paper's observation: clustered SVD at small rank has very high
	// error on sparse irregular graphs.
	g := gen.RMAT(9, 4, 0.57, 0.19, 0.19, 3)
	res := LowRankApprox(g, 64, 2, 1)
	if res.ErrorRate() < 0.3 {
		t.Fatalf("low-rank error rate %v unexpectedly low", res.ErrorRate())
	}
	if res.StorageFloats <= 0 || res.Clusters <= 0 {
		t.Fatalf("bad bookkeeping: %+v", res)
	}
}

func BenchmarkQuadFormErrorRMAT12(b *testing.B) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 1)
	h := g.FilterEdges(func(e graph.EdgeID) bool { return e%2 == 0 }, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuadFormError(g, h, 8, uint64(i))
	}
}
