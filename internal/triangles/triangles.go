// Package triangles lists and counts triangles (3-cycles).
//
// Triangle Reduction — the novel compression class of the paper (§4.3) —
// uses triangles as the smallest unit of compression, so this package is a
// first-class substrate: it enumerates every triangle exactly once together
// with the canonical EdgeIDs of its three edges, which is what triangle
// kernels need in order to delete edges.
//
// Counting and emission share one rank-oriented forward CSR (see Forward
// for the orientation invariant) but not one substrate. Counting reads the
// CSR alone: a Forward counts vertex by vertex with one stamp array per
// worker, each triangle at its rank-lowest vertex, over ranges of the vertex
// order cut by a work prefix. On a skewed graph it keeps the arcs into the
// top-ranked vertices (the hubs) as a bitmask row per vertex, so most
// matches are one AND and popcount per word instead of a probe per entry;
// the rows replace at least as many list bytes as they take, and a graph
// without such hubs keeps plain lists. Emission needs the canonical EdgeIDs
// too, one per entry: an Engine embeds a Forward of plain lists, adds the
// edge columns, the EdgeIDs of its lists and a per-edge schedule, and scans
// edge by edge. The package-level functions build a single-use substrate;
// callers enumerating more than once over the same graph should build and
// reuse an Engine.
//
// Emission is batched. One emitter serves ForEachBatch, ForEach, PerVertex,
// PerEdge and List: the scan writes each match as a Triangle into a
// per-worker buffer of 256 entries and the consumer is called once per full
// buffer (and once for the remainder of a range), so a triangle costs the
// scan step that found it plus one 24-byte store, not a call. Order
// guarantee: within a work range, batches arrive — and triangles lie within
// a batch — in the reference order, ascending rank-lowest EdgeID then
// ascending third-vertex ID, whatever the batch capacity; at one worker the
// graph is a single range.
//
// Directed graphs are NOT supported here: callers must symmetrize first
// (enumeration panics on a directed graph).
package triangles

import (
	"fmt"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/rng"
)

// Triangle is one 3-cycle: vertices V and the canonical EdgeIDs E of its
// three edges. E[0] connects V[0]-V[1], E[1] connects V[0]-V[2], and E[2]
// connects V[1]-V[2]. V is ordered by rank: rank(V[0]) < rank(V[1]) <
// rank(V[2]) under the (degree, ID) key, so E[0] is the triangle's
// rank-lowest edge — the edge it is discovered from.
type Triangle struct {
	V [3]graph.NodeID
	E [3]graph.EdgeID
}

// ForEach calls fn once for every triangle in g. With workers > 1, fn is
// invoked concurrently from multiple goroutines and must be safe for that;
// with an effective worker count of 1 triangles arrive in the deterministic
// reference order. Builds a single-use Engine — reuse an Engine directly
// for repeated enumeration.
func ForEach(g *graph.Graph, workers int, fn func(t Triangle)) {
	NewEngine(g, workers).ForEach(fn)
}

// Count returns the number of triangles in a — raw CSR or packed graph, with
// a bit-identical result for the same logical graph.
func Count(a graph.AdjacencyEdges, workers int) int64 {
	return NewForward(a, workers).Count()
}

// PerVertex returns counts[v] = number of triangles containing vertex v.
func PerVertex(g *graph.Graph, workers int) []int64 {
	return NewEngine(g, workers).PerVertex()
}

// PerEdge returns counts[e] = number of triangles containing canonical edge
// e. The CT variant of Triangle Reduction removes edges that belong to the
// fewest triangles first, which needs exactly this array.
func PerEdge(g *graph.Graph, workers int) []int64 {
	return NewEngine(g, workers).PerEdge()
}

// CountApprox estimates the triangle count with DOULION (Tsourakakis et
// al.): sample each edge with probability p, count triangles in the sample,
// scale by p^-3. The paper cites this family as what makes TR affordable on
// the largest graphs. The coin flip hashes the canonical edge ID and kept
// edges stay in canonical order, so every representation estimates the same.
func CountApprox(a graph.AdjacencyEdges, p float64, seed uint64, workers int) float64 {
	if !(p > 0 && p <= 1) { // written so that NaN fails
		panic("triangles: sampling probability must be in (0, 1]")
	}
	if a.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	eu, ev, _ := graph.EdgeColumnsOf(a, workers)
	// Each coin is flipped once: block b of the canonical order writes the IDs
	// it keeps at the front of its own stretch of ids, and a scan of the block
	// counts places them — canonical order, whatever the worker count.
	m := a.M()
	blocks := parallel.Blocks(m, 0, workers)
	ids := make([]graph.EdgeID, m)
	starts := make([]int64, blocks+1)
	parallel.ForBlocks(m, blocks, workers, func(b, lo, hi int) {
		k := lo
		for e := lo; e < hi; e++ {
			if float64(rng.Hash64(seed, uint64(e))>>11)/(1<<53) < p {
				ids[k] = graph.EdgeID(e)
				k++
			}
		}
		starts[b] = int64(k - lo)
	})
	kept := make([]graph.Edge, parallel.ExclusiveScan(starts, 1))
	parallel.ForBlocks(m, blocks, workers, func(b, lo, _ int) {
		for i, e := range ids[lo : lo+int(starts[b+1]-starts[b])] {
			kept[starts[b]+int64(i)] = graph.Edge{U: eu[e], V: ev[e], W: 1}
		}
	})
	sampled, err := graph.FromCanonicalEdges(a.N(), false, false, kept, workers)
	if err != nil {
		panic(fmt.Sprintf("triangles: edge view is not canonical: %v", err))
	}
	count := Count(sampled, workers)
	if count == 0 {
		return 0 // not 0/0 when p is so small that p³ underflows
	}
	return float64(count) / (p * p * p)
}

// CountApproxOn forwards to CountApprox for benchmark/ (frozen); the next benchmark PR deletes it.
func CountApproxOn(a graph.AdjacencyEdges, p float64, seed uint64, workers int) float64 {
	return CountApprox(a, p, seed, workers)
}

// List materializes all triangles in the deterministic reference order.
// Intended for tests, small graphs, and the sequential engine mode.
func List(g *graph.Graph) []Triangle {
	return NewEngine(g, 1).List()
}
