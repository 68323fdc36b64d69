package cluster

import (
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// The partitioning layer of the paper's distributed-memory pipeline (§3.2,
// §7.3): degree-aware 1D vertex ranges over any graph.Adjacency (a packed
// graph is partitioned in place).

// Range is a half-open contiguous vertex range [Lo, Hi) owned by one rank.
type Range struct {
	Lo, Hi int32
}

// Len returns the number of vertices in the range.
func (r Range) Len() int { return int(r.Hi - r.Lo) }

// Contains reports whether v falls in the range.
func (r Range) Contains(v graph.NodeID) bool { return v >= r.Lo && v < r.Hi }

// PartitionByDegree splits [0, n) into parts contiguous ranges balanced by
// vertex weight degree+1 — the degree term balances arc ownership (the work
// of BFS expansion, PageRank pulls, histogram scans), the +1 spreads
// isolated vertices. The split is a pure function of the degree sequence:
// every process that sees the same graph computes the same ranges, which is
// how cluster shards agree on ownership without a metadata exchange. Ranges
// concatenate to exactly [0, n); trailing ranges may be empty when parts
// exceeds what the weights can fill.
func PartitionByDegree(g graph.Adjacency, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	cut := degreeCuts(g, parts)
	ranges := make([]Range, parts)
	for i := range ranges {
		ranges[i].Lo = cut(i)
		ranges[i].Hi = cut(i + 1)
	}
	return ranges
}

// partRange returns PartitionByDegree(g, parts)[i] without the other
// ranges: what a shard derives from a sub-request's (shard, of), at a cost
// that depends on the graph and not on `of`.
func partRange(g graph.Adjacency, i, parts int) Range {
	cut := degreeCuts(g, parts)
	return Range{Lo: cut(i), Hi: cut(i + 1)}
}

// degreeCuts returns cut(k), the vertex at which part k of parts opens: the
// first one where the degree+1 prefix weight reaches k/parts of the total,
// so cut(0) = 0 and cut(parts) = n. The returned function walks the prefix
// forward only — call it with nondecreasing k.
func degreeCuts(g graph.Adjacency, parts int) func(k int) int32 {
	n := g.N()
	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.Degree(graph.NodeID(v))) + 1
	}
	v := 0
	var acc int64
	return func(k int) int32 {
		// Close part k-1 at the prefix weight nearest its proportional share.
		for target := parallel.Share(total, k, parts); v < n && acc < target; v++ {
			acc += int64(g.Degree(graph.NodeID(v))) + 1
		}
		return int32(v)
	}
}
