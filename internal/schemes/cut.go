package schemes

import (
	"fmt"
	"math"
	"time"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/unionfind"
)

// CutSparsify implements a practical Benczúr–Karger cut sparsifier — the
// first of the §4.6 "future Slim Graph versions" schemes, expressed as an
// edge kernel. Edge strengths are lower-bounded with Nagamochi–Ibaraki
// forest decomposition (edge in the i-th spanning forest has local
// connectivity >= i); each edge then stays with probability
// min(1, rho/strength) and is reweighted by 1/p_e, which preserves every
// cut within 1±ε w.h.p. for rho = O(log n / ε²).
//
// rho <= 0 picks the standard 8·ln(n) (ε ≈ 1/2 constants); larger rho keeps
// more edges and tightens cut preservation.
func CutSparsify(g *graph.Graph, rho float64, seed uint64, workers int) *Result {
	start := time.Now()
	if rho <= 0 {
		rho = 8 * math.Log(float64(max(g.N(), 2)))
	}
	strength := forestIndices(g)
	sg := core.New(g, seed, workers)
	sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
		stay := math.Min(1, rho/float64(strength[e.ID]))
		if stay < r.Float64() {
			sg.Del(e.ID)
		} else if stay < 1 {
			sg.SetWeight(e.ID, e.Weight/stay)
		}
	})
	return finish("cut", fmt.Sprintf("rho=%.1f", rho), g, sg.Materialize(), start)
}

// forestIndices assigns every edge its Nagamochi–Ibaraki forest index: the
// round in which a repeated spanning-forest extraction picks it up. Edges
// in forest i connect components that survived i-1 previous forests, so
// the local edge connectivity of their endpoints is at least i. Indices
// are capped at maxForests (such edges are extremely well connected and
// sampled hardest anyway).
func forestIndices(g *graph.Graph) []int32 {
	const maxForests = 64
	m := g.M()
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
		uf := unionfind.New(g.N())
		next := remaining[:0]
		for _, e := range remaining {
			u, v := g.EdgeEndpoints(e)
			if uf.Union(u, v) {
				index[e] = round // joined the round-th forest
			} else {
				next = append(next, e)
			}
		}
		remaining = next
	}
	return index
}

// VertexSample implements the simplest member of the sampling class the
// paper catalogs in §2 ([79, 99, 160]): every vertex independently remains
// with probability keep; edges incident to removed vertices vanish. Vertex
// IDs are preserved (removed vertices become isolated) so per-vertex
// outputs stay aligned.
func VertexSample(g *graph.Graph, keep float64, seed uint64, workers int) *Result {
	if keep < 0 || keep > 1 {
		panic("schemes: VertexSample probability must be in [0, 1]")
	}
	start := time.Now()
	sg := core.New(g, seed, workers)
	sg.RunVertexKernel(func(sg *core.SG, r *rng.Rand, v core.VertexView) {
		if keep < r.Float64() {
			sg.DelVertex(v.ID)
		}
	})
	return finish("vertexsample", fmt.Sprintf("keep=%g", keep), g, sg.Materialize(), start)
}
