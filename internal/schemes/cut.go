package schemes

import (
	"math"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/unionfind"
)

// cutSparsify implements a practical Benczúr–Karger cut sparsifier — the
// first of the §4.6 "future Slim Graph versions" schemes, expressed as an
// edge kernel. Edge strengths are lower-bounded with Nagamochi–Ibaraki
// forest decomposition (edge in the i-th spanning forest has local
// connectivity >= i); each edge then stays with probability
// min(1, rho/strength) and is reweighted by 1/p_e, which preserves every
// cut within 1±ε w.h.p. for rho = O(log n / ε²).
//
// rho=auto picks the standard 8·ln(n) (ε ≈ 1/2 constants); larger rho keeps
// more edges and tightens cut preservation. The forest decomposition reads
// the SG's edge columns, which the edge kernel then reuses.
func cutSparsify(g graph.AdjacencyEdges, a Args) (*Result, error) {
	rho := a.Float("rho")
	if rho <= 0 {
		rho = 8 * math.Log(float64(max(g.N(), 2)))
	}
	sg := core.New(g, a.Seed, a.Workers)
	eu, ev := sg.EdgeColumns()
	strength := forestIndices(g.N(), eu, ev)
	sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
		stay := math.Min(1, rho/float64(strength[e.ID]))
		if stay < r.Float64() {
			sg.Del(e.ID)
		} else if stay < 1 {
			sg.SetWeight(e.ID, e.Weight/stay)
		}
	})
	return &Result{Output: sg.Materialize()}, nil
}

// forestIndices assigns every canonical edge (eu[e], ev[e]) of an n-vertex
// graph its Nagamochi–Ibaraki forest index: the round in which a repeated
// spanning-forest extraction picks it up. Edges in forest i connect
// components that survived i-1 previous forests, so the local edge
// connectivity of their endpoints is at least i. Indices are capped at
// maxForests (such edges are extremely well connected and sampled hardest
// anyway).
func forestIndices(n int, eu, ev []graph.NodeID) []int32 {
	const maxForests = 64
	m := len(eu)
	index := make([]int32, m)
	remaining := make([]graph.EdgeID, m)
	for e := range remaining {
		remaining[e] = graph.EdgeID(e)
	}
	for round := int32(1); len(remaining) > 0; round++ {
		if round >= maxForests {
			for _, e := range remaining {
				index[e] = maxForests
			}
			break
		}
		uf := unionfind.New(n)
		next := remaining[:0]
		for _, e := range remaining {
			if uf.Union(eu[e], ev[e]) {
				index[e] = round // joined the round-th forest
			} else {
				next = append(next, e)
			}
		}
		remaining = next
	}
	return index
}
