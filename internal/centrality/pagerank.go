// Package centrality implements PageRank and Brandes betweenness
// centrality.
//
// These two algorithms anchor the paper's accuracy metrics: PageRank output
// is a probability distribution compared with the Kullback–Leibler
// divergence (Table 5), and betweenness centrality output is a per-vertex
// score vector compared with reordered-pair counts (§7.2).
package centrality

import (
	"math"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// PageRankOptions configures the power iteration.
type PageRankOptions struct {
	Damping   float64 // damping factor d; 0 means the conventional 0.85
	Tolerance float64 // L1 convergence threshold; 0 means 1e-9
	MaxIter   int     // iteration cap; 0 means 100
	Workers   int     // parallelism; <= 0 means all CPUs
}

func (o PageRankOptions) withDefaults() PageRankOptions {
	if o.Damping == 0 {
		o.Damping = 0.85
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-9
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	return o
}

// PageRank returns the PageRank vector of g, normalized to sum to 1 — a
// probability distribution over vertices, exactly the object Table 5 feeds
// into the KL divergence. Dangling vertices (out-degree 0) redistribute
// their mass uniformly, so the distribution stays normalized even on
// heavily compressed graphs with isolated vertices.
//
// One pull loop serves every graph.Adjacency, raw CSR or PackedGraph decoded
// on the fly: in-neighbors are summed in increasing order on all of them, so
// the vectors are bit-identical for the same graph. The worker count changes
// no per-vertex value either; it only reorders the L1 delta that decides
// when to stop.
//
// Nothing per arc touches the representation's directory or divides: the
// degree vector is read once per call, contrib[u] = rank[u]/deg(u) once per
// vertex per iteration, and the arc loop adds contrib[u] over lists that
// ScanInLists decodes into one reused buffer per worker.
func PageRank(g graph.Adjacency, opts PageRankOptions) []float64 {
	o := opts.withDefaults()
	n := g.N()
	if n == 0 {
		return nil
	}
	deg := make([]int32, n)
	parallel.ForChunks(n, o.Workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(g.Degree(graph.NodeID(v)))
		}
	})
	// The out-degree-0 vertices, ascending: the order their mass is summed in.
	var dangling []graph.NodeID
	for v, d := range deg {
		if d == 0 {
			dangling = append(dangling, graph.NodeID(v))
		}
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	bufs := make([][]graph.NodeID, parallel.Resolve(o.Workers, n))
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	base := (1 - o.Damping) * inv
	for iter := 0; iter < o.MaxIter; iter++ {
		// Mass of dangling vertices spreads uniformly.
		danglingMass := 0.0
		for _, v := range dangling {
			danglingMass += rank[v]
		}
		danglingShare := o.Damping * danglingMass * inv
		// contrib has the operands of the textbook per-arc rank[u]/deg(u), so
		// hoisting the quotient changes no bit. A dangling vertex is nobody's
		// in-neighbor, so its 0 is never read.
		parallel.ForChunks(n, o.Workers, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				if deg[u] == 0 {
					contrib[u] = 0
					continue
				}
				contrib[u] = rank[u] / float64(deg[u])
			}
		})
		// next[v] = Σ contrib[u] over the in-neighbors u of v, in increasing-u
		// order — the only float order the per-vertex values depend on.
		parallel.ForWorker(n, o.Workers, func(w, lo, hi int) {
			bufs[w] = g.ScanInLists(graph.NodeID(lo), graph.NodeID(hi), bufs[w], func(v graph.NodeID, nbrs []graph.NodeID) {
				sum := 0.0
				for _, u := range nbrs {
					sum += contrib[u]
				}
				next[v] = sum
			})
		})
		// next[v] = base + d·dangling/n + d·sums[v], finished in the pass that
		// takes the L1 delta (each v visited once).
		delta := parallel.SumFloat64(n, o.Workers, func(v int) float64 {
			next[v] = base + danglingShare + o.Damping*next[v]
			return math.Abs(next[v] - rank[v])
		})
		rank, next = next, rank
		if delta < o.Tolerance {
			break
		}
	}
	return rank
}

// PageRankOn forwards to PageRank for benchmark/ (frozen); the next benchmark PR deletes it.
func PageRankOn(g graph.Adjacency, opts PageRankOptions) []float64 { return PageRank(g, opts) }
