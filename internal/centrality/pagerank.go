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
// One pull loop serves every graph.Adjacency: it runs over the flat in-lists
// graph.InListsOf returns — the raw in-CSR itself, or one decode of a packed
// or mapped graph per call, never one per iteration. In-neighbors are summed
// in increasing order on all of them, so the vectors are bit-identical for
// the same graph. The worker count changes no per-vertex value either; it
// only reorders the L1 delta that decides when to stop.
//
// An iteration is one parallel pass, and nothing per arc divides: for each
// vertex it pulls Σ contrib[u] over the in-neighbors u, finishes the new
// rank, adds its change to the worker's delta slot and writes the quotient
// rank/deg(v) the next iteration pulls into a second contrib buffer.
func PageRank(g graph.Adjacency, opts PageRankOptions) []float64 {
	o := opts.withDefaults()
	n := g.N()
	if n == 0 {
		return nil
	}
	off, in, _ := graph.InListsOf(g, o.Workers)
	deg := make([]int32, n)
	parallel.ForChunks(n, o.Workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(g.Degree(graph.NodeID(v)))
		}
	})
	// The out-degree-0 vertices, ascending: the order their mass is summed in.
	zeros := 0
	for _, d := range deg {
		if d == 0 {
			zeros++
		}
	}
	dangling := make([]graph.NodeID, 0, zeros)
	for v, d := range deg {
		if d == 0 {
			dangling = append(dangling, graph.NodeID(v))
		}
	}
	// contrib[u] = rank[u]/deg(u) has the operands of the textbook per-arc
	// quotient, so hoisting it changes no bit. A dangling vertex is nobody's
	// in-neighbor, so its 0 is never read.
	rank := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	nextContrib := make([]float64, n)
	inv := 1.0 / float64(n)
	for v := range rank {
		rank[v] = inv
		if deg[v] != 0 {
			contrib[v] = inv / float64(deg[v])
		}
	}
	const pad = 8 // delta slots a cache line apart
	deltas := make([]float64, pad*parallel.Resolve(o.Workers, n))
	base := (1 - o.Damping) * inv
	for iter := 0; iter < o.MaxIter; iter++ {
		// Mass of dangling vertices spreads uniformly.
		danglingMass := 0.0
		for _, v := range dangling {
			danglingMass += rank[v]
		}
		danglingShare := o.Damping * danglingMass * inv
		clear(deltas)
		parallel.ForWorker(n, o.Workers, func(w, lo, hi int) {
			// Locals: the swap below reassigns these variables, so the
			// closure would otherwise read each through a pointer per access.
			rank, next, contrib, nextContrib := rank, next, contrib, nextContrib
			delta := 0.0
			for v := lo; v < hi; v++ {
				// Σ contrib[u] in increasing-u order — the only float order
				// the per-vertex values depend on.
				sum := 0.0
				for _, u := range in[off[v]:off[v+1]] {
					sum += contrib[u]
				}
				r := base + danglingShare + o.Damping*sum
				next[v] = r
				delta += math.Abs(r - rank[v])
				if deg[v] != 0 {
					nextContrib[v] = r / float64(deg[v])
				}
			}
			deltas[w*pad] += delta
		})
		rank, next = next, rank
		contrib, nextContrib = nextContrib, contrib
		delta := 0.0
		for w := 0; w < len(deltas); w += pad {
			delta += deltas[w]
		}
		if delta < o.Tolerance {
			break
		}
	}
	return rank
}

// PageRankOn forwards to PageRank for benchmark/ (frozen); the next benchmark PR deletes it.
func PageRankOn(g graph.Adjacency, opts PageRankOptions) []float64 { return PageRank(g, opts) }
