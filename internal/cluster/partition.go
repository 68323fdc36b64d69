package cluster

import "slimgraph/internal/graph"

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
// vertex weight degree+1 (graph.DegreeCuts) — the degree term balances arc
// ownership (the work of BFS expansion, PageRank pulls, histogram scans),
// the +1 spreads isolated vertices. The split is a pure function of the
// degree sequence: every process that sees the same graph computes the same
// ranges, which is how a shard derives the degrees part it is handed without
// a metadata exchange. Ranges concatenate to exactly [0, n); trailing ranges
// may be empty when parts exceeds what the weights can fill.
func PartitionByDegree(g graph.Adjacency, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	cut := graph.DegreeCuts(g, parts)
	ranges := make([]Range, parts)
	for i := range ranges {
		ranges[i].Lo = cut(i)
		ranges[i].Hi = cut(i + 1)
	}
	return ranges
}
