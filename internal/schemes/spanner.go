package schemes

import (
	"fmt"
	"sync"
	"time"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/ldd"
	"slimgraph/internal/rng"
)

// InterClusterMode selects how many inter-cluster edges the spanner keeps.
type InterClusterMode int

const (
	// PerVertex (the default) keeps one edge from every vertex to every
	// adjacent cluster — the Miller et al. rule and the §4.5.3 prose
	// ("for each subgraph C and each vertex v belonging to C ... only one
	// of these edges is added"). This is the variant whose edge counts
	// match the paper's evaluation (21% removal at k=2 on s-pok).
	PerVertex InterClusterMode = iota
	// PerClusterPair keeps one edge between every pair of adjacent
	// clusters — the more aggressive reading of the Listing 1 kernel.
	PerClusterPair
)

func (m InterClusterMode) String() string {
	if m == PerVertex {
		return "pervertex"
	}
	return "perpair"
}

// SpannerOptions configures Spanner.
type SpannerOptions struct {
	K       int // stretch parameter k >= 1; larger k = fewer edges
	Mode    InterClusterMode
	Seed    uint64
	Workers int
}

// Spanner derives an O(k)-spanner (§4.5.3): the graph is decomposed into
// low-diameter clusters (MPX exponential shifts with beta = ln(n)/(2k)),
// each cluster is replaced by its BFS spanning tree, and inter-cluster
// edges are thinned to one per cluster pair (or per vertex-cluster pair).
//
// The construction runs as a Slim Graph subgraph kernel: the LDD is the
// mapping of §4.5.2, each cluster is one kernel instance, and kernels mark
// the edges to keep; a final edge kernel deletes everything unmarked.
func Spanner(g *graph.Graph, opts SpannerOptions) *Result {
	if opts.K < 1 {
		panic("schemes: spanner requires K >= 1")
	}
	start := time.Now()
	d := ldd.Decompose(g, ldd.BetaForSpanner(g.N(), opts.K), opts.Seed)
	idx := d.ClusterIndex()
	keep := graph.NewEdgeSet(g.M())
	for _, e := range d.TreeEdges(g) {
		keep.Add(e)
	}
	sg := core.New(g, opts.Seed, opts.Workers)
	mode, count := opts.Mode, d.NumClusters()
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
			// PerVertex keeps one edge per (vertex, cluster); PerClusterPair
			// one per cluster pair, decided by the lower-indexed cluster so
			// each edge has exactly one deciding kernel instance.
			mark := int32(v) + 1
			if mode == PerClusterPair {
				mark = s.Index + 1
			}
			nbrs, eids := sg.Graph().NeighborEdges(v)
			for i, w := range nbrs {
				j := s.Of[w]
				if j == s.Index {
					continue // intra-cluster: only tree edges survive
				}
				if mode == PerClusterPair && s.Index > j {
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
	params := fmt.Sprintf("k=%d,mode=%s", opts.K, opts.Mode)
	return finish("spanner", params, g, sg.Materialize(), start)
}
