package cluster

import "slimgraph/internal/graph"

// The partitioning layer of the paper's distributed-memory pipeline (§3.2,
// §7.3): degree-aware 1D vertex ranges over any graph.Adjacency (a packed
// graph is partitioned in place) and the degree-histogram reduction.

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
	n := g.N()
	var total int64
	for v := 0; v < n; v++ {
		total += int64(g.Degree(graph.NodeID(v))) + 1
	}
	ranges := make([]Range, parts)
	lo := 0
	var acc int64
	for i := 0; i < parts; i++ {
		// Close part i at the prefix weight nearest its proportional share.
		target := total * int64(i+1) / int64(parts)
		hi := lo
		for hi < n && acc < target {
			acc += int64(g.Degree(graph.NodeID(hi))) + 1
			hi++
		}
		ranges[i] = Range{Lo: int32(lo), Hi: int32(hi)}
		lo = hi
	}
	ranges[parts-1].Hi = int32(n)
	return ranges
}

// HistogramRange returns the out-degree histogram of the vertices in r,
// sized to the local maximum degree plus one.
func HistogramRange(g graph.Adjacency, r Range) []int64 {
	local := make([]int64, 0)
	for v := r.Lo; v < r.Hi; v++ {
		d := g.Degree(v)
		for len(local) <= d {
			local = append(local, 0)
		}
		local[d]++
	}
	return local
}

// MergeHistograms sums partial histograms into one sized to the longest
// part — the reduction step of a distributed degree analysis. Merging in
// slice order keeps the result deterministic (integer sums are associative,
// but a fixed order costs nothing and documents the intent).
func MergeHistograms(parts [][]int64) []int64 {
	var merged []int64
	for _, part := range parts {
		if len(part) > len(merged) {
			grown := make([]int64, len(part))
			copy(grown, merged)
			merged = grown
		}
		for d, c := range part {
			merged[d] += c
		}
	}
	return merged
}
