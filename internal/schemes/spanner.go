package schemes

import (
	"sync"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/ldd"
	"slimgraph/internal/rng"
)

// spanner derives an O(k)-spanner (§4.5.3): the graph is decomposed into
// low-diameter clusters (MPX exponential shifts with beta = ln(n)/(2k)),
// each cluster is replaced by its BFS spanning tree, and inter-cluster
// edges are thinned according to mode:
//
//   - "pervertex" (the default) keeps one edge from every vertex to every
//     adjacent cluster — the Miller et al. rule and the §4.5.3 prose ("for
//     each subgraph C and each vertex v belonging to C ... only one of these
//     edges is added"). This is the variant whose edge counts match the
//     paper's evaluation (21% removal at k=2 on s-pok).
//   - "perpair" keeps one edge between every pair of adjacent clusters — the
//     more aggressive reading of the Listing 1 kernel.
//
// The construction runs as a Slim Graph subgraph kernel: the LDD is the
// mapping of §4.5.2, each cluster is one kernel instance, and kernels mark
// the edges to keep; a final edge kernel deletes everything unmarked. The
// decomposition and the kernels walk a CSR, decoded once from a packed or
// mapped input.
func spanner(in graph.AdjacencyEdges, a Args) (*Result, error) {
	g, perPair := graph.CSROf(in, a.Workers), a.Enum("mode") == "perpair"
	d := ldd.Decompose(g, ldd.BetaForSpanner(g.N(), a.Int("k")), a.Seed)
	idx := d.ClusterIndex()
	keep := graph.NewEdgeSet(g.M())
	for _, e := range d.TreeEdges(g) {
		keep.Add(e)
	}
	sg := core.New(g, a.Seed, a.Workers)
	count := d.NumClusters()
	// seen[j] is the mark under which an edge into cluster j was last kept.
	// A mark (a member vertex, or the instance's own cluster) belongs to
	// exactly one kernel instance, so instances recycle the slices without
	// clearing them.
	seenPool := sync.Pool{New: func() any {
		seen := make([]int32, count)
		return &seen
	}}
	sg.RunSubgraphKernel(idx, count, func(sg *core.SG, r *rng.Rand, s core.SubgraphView) {
		pooled := seenPool.Get().(*[]int32)
		defer seenPool.Put(pooled)
		seen := *pooled
		for _, v := range s.Members {
			// pervertex keeps one edge per (vertex, cluster); perpair one
			// per cluster pair, decided by the lower-indexed cluster so each
			// edge has exactly one deciding kernel instance.
			mark := int32(v) + 1
			if perPair {
				mark = s.Index + 1
			}
			nbrs, eids := g.NeighborEdges(v)
			for i, w := range nbrs {
				j := s.Of[w]
				if j == s.Index {
					continue // intra-cluster: only tree edges survive
				}
				if perPair && s.Index > j {
					continue // owned by the other side
				}
				if seen[j] != mark {
					seen[j] = mark
					keep.Add(eids[i])
				}
			}
		}
	})
	// Stage 2 of the kernel: delete everything not marked kept, in one
	// word-wise bitset pass.
	sg.DeleteUnmarked(keep)
	return &Result{Output: sg.Materialize()}, nil
}
