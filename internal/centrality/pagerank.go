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
	n := g.N()
	deg := OutDegrees(g, opts.Workers)
	contrib := make([]float64, n)
	bufs := make([][]graph.NodeID, parallel.Resolve(opts.Workers, n))
	// The local pull returns no error, so neither does the iteration.
	ranks, _ := PowerIterate(n, Dangling(deg, 0, graph.NodeID(n)), opts, func(rank, sums []float64) error {
		parallel.ForChunks(n, opts.Workers, func(lo, hi int) {
			Contributions(contrib[lo:hi], rank[lo:hi], deg[lo:hi])
		})
		parallel.ForWorker(n, opts.Workers, func(w, lo, hi int) {
			bufs[w] = PullSums(g, graph.NodeID(lo), graph.NodeID(hi), contrib, sums[lo:hi], bufs[w])
		})
		return nil
	})
	return ranks
}

// PowerIterate is the PageRank power iteration with the one step that reads
// the graph left to the caller: pull must set sums[v] = Σ rank[u]/deg(u)
// over the in-neighbors u of every vertex v, each sum accumulated in
// increasing-u order (Contributions then PullSums, over any split of the
// vertex range). Everything scalar happens here, once — uniform start, the
// dangling mass summed in the ascending order of dangling (the out-degree-0
// vertices), next[v] = (1-d)/n + d·dangling/n + d·sums[v], the L1 delta, the
// tolerance test and the iteration cap — so a backend that pulls locally in
// parallel and one that scatters the pull over shards return the same
// floats without mirroring a line of it. It returns the rank vector (nil
// when n is 0); an error from pull stops the iteration and is returned as
// is.
//
// opts.Workers only parallelises the per-vertex update and reorders the L1
// delta that decides when to stop; at Workers 1 both run in ascending
// vertex order.
func PowerIterate(n int, dangling []graph.NodeID, opts PageRankOptions, pull func(rank, sums []float64) error) ([]float64, error) {
	o := opts.withDefaults()
	if n == 0 {
		return nil, nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
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
		if err := pull(rank, next); err != nil {
			return nil, err
		}
		// Pull formulation: next[v] = base + d * sum_{u->v} rank[u]/deg(u),
		// finished in the pass that takes the L1 delta (each v visited once).
		delta := parallel.SumFloat64(n, o.Workers, func(v int) float64 {
			next[v] = base + danglingShare + o.Damping*next[v]
			return math.Abs(next[v] - rank[v])
		})
		rank, next = next, rank
		if delta < o.Tolerance {
			break
		}
	}
	return rank, nil
}

// OutDegrees reads g's out-degree vector, deg[v] = g.Degree(v): the one
// pass over the representation's directory a PageRank call makes.
func OutDegrees(g graph.Adjacency, workers int) []int32 {
	deg := make([]int32, g.N())
	parallel.ForChunks(len(deg), workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			deg[v] = int32(g.Degree(graph.NodeID(v)))
		}
	})
	return deg
}

// Dangling returns the vertices of [lo, hi) with out-degree 0, ascending.
// Their rank mass is what every iteration redistributes uniformly; summing
// it over this list equals summing over all vertices, because the others
// would add exact zeros.
func Dangling(deg []int32, lo, hi graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for v := lo; v < hi; v++ {
		if deg[v] == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Contributions sets contrib[i] = rank[i]/deg[i], the mass vertex i sends
// along each out-arc. The quotient has the operands of the textbook per-arc
// rank[u]/deg(u), so hoisting it changes no bit of the result. Dangling
// vertices get 0; they are nobody's in-neighbor, so it is never read.
func Contributions(contrib, rank []float64, deg []int32) {
	for i, d := range deg {
		if d == 0 {
			contrib[i] = 0
			continue
		}
		contrib[i] = rank[i] / float64(d)
	}
}

// PullSums is the pull step over the vertex range [lo, hi): sums[v-lo] =
// Σ contrib[u] over the in-neighbors u of v, accumulated in increasing-u
// order — the only float order PageRank's per-vertex values depend on. buf
// is the list decode buffer; the possibly grown buffer is returned for the
// next call.
func PullSums(g graph.Adjacency, lo, hi graph.NodeID, contrib, sums []float64, buf []graph.NodeID) []graph.NodeID {
	return g.ScanInLists(lo, hi, buf, func(v graph.NodeID, nbrs []graph.NodeID) {
		sum := 0.0
		for _, u := range nbrs {
			sum += contrib[u]
		}
		sums[v-lo] = sum
	})
}

// PageRankOn forwards to PageRank for benchmark/ (frozen); the next benchmark PR deletes it.
func PageRankOn(g graph.Adjacency, opts PageRankOptions) []float64 { return PageRank(g, opts) }
