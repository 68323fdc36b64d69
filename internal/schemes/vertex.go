package schemes

import (
	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// lowDegree implements the single-vertex kernel of §4.4 (Listing 1 lines
// 24-25): vertices of degree zero or one are removed. Degree-1 vertices
// contribute no shortest paths between higher-degree vertices, so the
// betweenness centrality of all remaining vertices is preserved exactly.
//
// The vertex set is kept (removed vertices become isolated) so per-vertex
// outputs stay aligned; callers that want a smaller vertex set can Compact
// the result.
func lowDegree(g graph.AdjacencyEdges, a Args) (*Result, error) {
	return &Result{Output: peelLeaves(g, a.Workers)}, nil
}

// lowDegreeIterative peels degree <= 1 vertices to a fixpoint (removing a
// leaf can expose a new leaf). This is the natural extension the paper's
// kernel invites; it reduces trees to nothing while leaving the 2-core
// intact.
func lowDegreeIterative(g graph.AdjacencyEdges, a Args) (*Result, error) {
	for cur := g; ; {
		next := peelLeaves(cur, a.Workers)
		if next.M() == cur.M() {
			return &Result{Output: next}, nil
		}
		cur = next
	}
}

// peelLeaves is one pass of the kernel. It draws no random numbers, so the
// seed is moot. The vertex kernel reads a packed or mapped g's degrees in
// place.
func peelLeaves(g graph.AdjacencyEdges, workers int) *graph.Graph {
	sg := core.New(g, 0, workers)
	sg.RunVertexKernel(func(sg *core.SG, r *rng.Rand, v core.VertexView) {
		if v.Deg == 0 || v.Deg == 1 {
			sg.DelVertex(v.ID)
		}
	})
	return sg.Materialize()
}

// vertexSample implements the simplest member of the sampling class the
// paper catalogs in §2 ([79, 99, 160]): every vertex independently remains
// with probability p; edges incident to removed vertices vanish. Vertex IDs
// are preserved (removed vertices become isolated) so per-vertex outputs
// stay aligned.
func vertexSample(g graph.AdjacencyEdges, a Args) (*Result, error) {
	keep := a.Float("p")
	sg := core.New(g, a.Seed, a.Workers)
	sg.RunVertexKernel(func(sg *core.SG, r *rng.Rand, v core.VertexView) {
		if keep < r.Float64() {
			sg.DelVertex(v.ID)
		}
	})
	return &Result{Output: sg.Materialize()}, nil
}
