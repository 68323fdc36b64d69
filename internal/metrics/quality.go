package metrics

import (
	"fmt"

	"slimgraph/internal/centrality"
	"slimgraph/internal/components"
	"slimgraph/internal/graph"
	"slimgraph/internal/mst"
	"slimgraph/internal/triangles"
)

// Quality bundles the §5 accuracy metrics of one compressed variant against
// its original — the payload of the server's /compare endpoint and of the
// slimgraph CLI's -metrics report. All fields are scalars so the struct
// marshals to deterministic JSON (no maps).
type Quality struct {
	// Vertex and edge counts on both sides.
	N  int `json:"n"`
	M  int `json:"m"`
	CN int `json:"compressedN"`
	CM int `json:"compressedM"`
	// EdgeReduction is 1 - m'/m, the x-axis of the paper's quality plots.
	EdgeReduction float64 `json:"edgeReduction"`
	// KLPageRank is D(PR_orig || PR_comp) in bits.
	KLPageRank float64 `json:"klPageRank"`
	// ReorderedPairs is the fraction of vertex pairs whose PageRank order
	// inverted, normalized by n².
	ReorderedPairs float64 `json:"reorderedPairs"`
	// Components counts connected components before and after.
	Components           int `json:"components"`
	CompressedComponents int `json:"compressedComponents"`
	// Triangles counts triangles before and after.
	Triangles           int64 `json:"triangles"`
	CompressedTriangles int64 `json:"compressedTriangles"`
	// BFSRetention is |Ẽcr|/|Ecr| averaged over roots 0 and n/2.
	BFSRetention float64 `json:"bfsRetention"`
	// DegreeDistance is the total-variation distance between the two degree
	// distributions.
	DegreeDistance float64 `json:"degreeDistance"`
	// MST weights, present only for weighted graphs.
	MSTWeight           *float64 `json:"mstWeight,omitempty"`
	CompressedMSTWeight *float64 `json:"compressedMstWeight,omitempty"`
}

// CompareGraphs computes the Quality of comp against orig. It only applies
// when the vertex set is unchanged (PageRank divergence and BFS retention
// are defined over a shared ID space); callers must not pass a
// vertex-renumbering variant (triangle collapse, summarize). workers <= 0
// means all CPUs.
//
// Either side may be raw or packed: every sub-metric's kernel is
// representation-independent down to float summation order, so the Quality
// is bit-identical for the same logical graphs — which is what lets the
// server compare a packed original against a variant without unpacking it.
func CompareGraphs(orig, comp graph.AdjacencyEdges, workers int) (*Quality, error) {
	if orig.N() != comp.N() {
		return nil, fmt.Errorf("metrics: compare needs a shared vertex set (orig n=%d, compressed n=%d)",
			orig.N(), comp.N())
	}
	q := &Quality{
		N: orig.N(), M: orig.M(),
		CN: comp.N(), CM: comp.M(),
	}
	if orig.N() == 0 {
		// Nothing to traverse or rank; the counts above say it all.
		return q, nil
	}
	if orig.M() > 0 {
		q.EdgeReduction = 1 - float64(comp.M())/float64(orig.M())
	}
	prO := centrality.PageRank(orig, centrality.PageRankOptions{Workers: workers})
	prC := centrality.PageRank(comp, centrality.PageRankOptions{Workers: workers})
	q.KLPageRank = KLDivergence(prO, prC)
	q.ReorderedPairs = ReorderedPairs(prO, prC)
	q.Components = components.Count(orig)
	q.CompressedComponents = components.Count(comp)
	if !orig.Directed() {
		// The triangle engine is defined over undirected graphs only.
		q.Triangles = triangles.Count(orig, workers)
		q.CompressedTriangles = triangles.Count(comp, workers)
	}
	roots := []graph.NodeID{0, graph.NodeID(orig.N() / 2)}
	q.BFSRetention = BFSCriticalMulti(orig, comp, roots, workers)
	q.DegreeDistance = DistributionDistance(DegreeDistribution(orig), DegreeDistribution(comp))
	if orig.Weighted() && comp.Weighted() {
		wO, wC := mst.Kruskal(orig).Weight, mst.Kruskal(comp).Weight
		q.MSTWeight, q.CompressedMSTWeight = &wO, &wC
	}
	return q, nil
}

// CompareGraphsOn forwards to CompareGraphs for benchmark/ (frozen); the next benchmark PR deletes it.
func CompareGraphsOn(orig, comp graph.AdjacencyEdges, workers int) (*Quality, error) {
	return CompareGraphs(orig, comp, workers)
}
