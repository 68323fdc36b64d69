package cluster

import (
	"math/bits"

	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
)

// Shard-side partial kernels. Each operates on the full replica through
// graph.Adjacency (raw CSR or packed form, traversed in place) restricted
// to one contiguous vertex range, and each is deterministic: outputs are
// pure functions of (graph, range), with any float accumulation happening
// in the same order the single-node algorithms use.

// expandFrontier returns the sorted, deduplicated out-neighbors of the
// frontier vertices this range owns — one shard's share of a
// level-synchronous BFS step. Neighbors are marked in an n-bit set and the
// set bits read back in ascending order, so no candidate is ever sorted.
func expandFrontier(g graph.Adjacency, r Range, frontier []int32) []int32 {
	seen := make([]uint64, (g.N()+63)/64)
	for _, u := range frontier {
		if !r.Contains(u) {
			continue
		}
		g.ForNeighbors(u, func(w graph.NodeID) {
			seen[w>>6] |= 1 << (uint(w) & 63)
		})
	}
	count := 0
	for _, word := range seen {
		count += bits.OnesCount64(word)
	}
	next := make([]int32, 0, count)
	for i, word := range seen {
		for ; word != 0; word &= word - 1 {
			next = append(next, int32(i<<6+bits.TrailingZeros64(word)))
		}
	}
	return next
}

// danglingIn returns the out-degree-0 vertices of the range, ascending.
// Concatenated in shard order these form the globally ascending dangling
// list the coordinator sums rank mass over — the order matching the
// single-node sequential reduction.
func danglingIn(g graph.Adjacency, r Range) []int32 {
	return centrality.Dangling(centrality.OutDegrees(g, 1), r.Lo, r.Hi)
}

// pullSums computes one PageRank pull iteration for the owned range:
// sums[i] = Σ ranks[u]/deg(u) over the in-neighbors u of vertex Lo+i,
// accumulated in in-neighbor order by the very pull step
// centrality.PageRank runs (contributions are divided out once per
// sub-request, then summed), so the coordinator's next[v] = base +
// dangling + damping*sums[i] reproduces the single-node floats bit for
// bit.
func pullSums(g graph.Adjacency, r Range, ranks []float64) []float64 {
	contrib := make([]float64, len(ranks))
	centrality.Contributions(contrib, ranks, centrality.OutDegrees(g, 1))
	sums := make([]float64, r.Len())
	centrality.PullSums(g, r.Lo, r.Hi, contrib, sums, nil)
	return sums
}

// countForward counts the triangles whose minimum-ID vertex lies in the
// owned range, via sorted forward-list intersections: for each owned u and
// each forward neighbor w > u, triangles {u, w, x} with x > w are
// |fwd(u) ∩ fwd(w)|. Every triangle {a < b < c} is counted exactly once —
// at u=a, w=b — so per-range counts sum to the exact global count (integer
// sums are associative; no merge-order caveats). The forward lists of
// every vertex an intersection can touch — [r.Lo, n), since w > u — are
// built once, in one ForNeighbors pass, into an offsets+targets pair that
// dies with the sub-request. Assumes simple graphs, like the single-node
// exact counter.
func countForward(g graph.Adjacency, r Range) int64 {
	n := graph.NodeID(g.N())
	offsets := make([]int, n-r.Lo+1)
	var targets []graph.NodeID
	for v := r.Lo; v < n; v++ {
		g.ForNeighbors(v, func(w graph.NodeID) {
			if w > v {
				targets = append(targets, w)
			}
		})
		offsets[v-r.Lo+1] = len(targets)
	}
	forward := func(v graph.NodeID) []graph.NodeID {
		return targets[offsets[v-r.Lo]:offsets[v-r.Lo+1]]
	}
	var total int64
	for u := r.Lo; u < r.Hi; u++ {
		fu := forward(u)
		for _, w := range fu {
			total += intersectCount(fu, forward(w))
		}
	}
	return total
}

// intersectCount returns |a ∩ b| for ascending slices.
func intersectCount(a, b []graph.NodeID) int64 {
	var c int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}
