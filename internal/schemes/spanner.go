package schemes

import (
	"slices"
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
// mapping of §4.5.2, each cluster is one kernel instance, and kernels record
// the inter-cluster arcs (v, w) their members keep; one word-wise pass over
// the SG's edge columns then keeps the tree edges and the recorded arcs and
// deletes everything else. The decomposition and the kernels read a packed
// or mapped g in place.
func spanner(g graph.AdjacencyEdges, a Args) (*Result, error) {
	perPair, n := a.Enum("mode") == "perpair", g.N()
	sg := core.New(g, a.Seed, a.Workers)
	// The canonical decode comes first: it refuses a corrupt packed payload
	// before any neighborhood walk reads one.
	eu, ev := sg.EdgeColumns()
	d := ldd.Decompose(g, ldd.BetaForSpanner(n, a.Int("k")), a.Seed)
	idx := d.ClusterIndex()
	// The arcs v keeps are chosen[start[v] : start[v]+kept[v]], targets
	// ascending: a slot per arc of v, written by v's kernel instance only.
	start := make([]int64, n+1)
	for v := 0; v < n; v++ {
		start[v+1] = start[v] + int64(g.Degree(graph.NodeID(v)))
	}
	chosen, kept := make([]graph.NodeID, start[n]), make([]int32, n)
	// A picker is one kernel instance's scratch, recycled through a pool with
	// its visit closure bound once. seen[j] is the mark under which an arc
	// into cluster j was last kept; a mark (a member vertex, or the
	// instance's own cluster) belongs to exactly one kernel instance, so
	// instances recycle seen without clearing it.
	type picker struct {
		self, mark int32
		out        []graph.NodeID
		visit      func(w graph.NodeID)
	}
	pickers := sync.Pool{New: func() any {
		seen, p := make([]int32, d.NumClusters()), &picker{}
		p.visit = func(w graph.NodeID) {
			j := idx[w]
			if j == p.self || (perPair && p.self > j) {
				return // intra-cluster (only tree edges survive), or the other side's
			}
			if seen[j] != p.mark {
				seen[j] = p.mark
				p.out = append(p.out, w)
			}
		}
		return p
	}}
	sg.RunSubgraphKernel(idx, d.NumClusters(), func(sg *core.SG, r *rng.Rand, s core.SubgraphView) {
		p := pickers.Get().(*picker)
		defer pickers.Put(p)
		p.self = s.Index
		for _, v := range s.Members {
			// pervertex keeps one arc per (vertex, cluster); perpair one per
			// cluster pair, decided by the lower-indexed cluster so each pair
			// has exactly one deciding kernel instance.
			p.mark = int32(v) + 1
			if perPair {
				p.mark = s.Index + 1
			}
			p.out = chosen[start[v]:start[v]:start[v+1]]
			g.ForNeighbors(v, p.visit)
			kept[v] = int32(len(p.out))
		}
	})
	keeps := func(v, w graph.NodeID) bool {
		_, found := slices.BinarySearch(chosen[start[v]:start[v]+int64(kept[v])], w)
		return found
	}
	// Stage 2 of the kernel: keep the tree edges, which join a cluster, and
	// the chosen arcs, which leave one — on an undirected graph in either
	// direction — and delete everything else, in word-wise bitset passes.
	directed := g.Directed()
	keep := graph.NewEdgeSet(g.M())
	keep.AddBatch(a.Workers, func(e graph.EdgeID) bool {
		u, v := eu[e], ev[e]
		if idx[u] == idx[v] {
			return d.Parent[v] == u || (!directed && d.Parent[u] == v)
		}
		return keeps(u, v) || (!directed && keeps(v, u))
	})
	sg.DeleteUnmarked(keep)
	return &Result{Output: sg.Materialize()}, nil
}
