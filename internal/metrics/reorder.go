package metrics

import (
	"sort"

	"slimgraph/internal/graph"
)

// ReorderedPairs returns the number of strictly discordant vertex pairs
// between two score vectors — pairs (i, j) whose relative order under orig
// and comp is inverted — divided by n^2, the paper's normalization (§5).
// Cost is O(n log n) via merge-sort inversion counting.
func ReorderedPairs(orig, comp []float64) float64 {
	n := len(orig)
	if n != len(comp) {
		panic("metrics: length mismatch")
	}
	if n < 2 {
		return 0
	}
	count := discordantPairs(orig, comp)
	return float64(count) / float64(n) / float64(n)
}

// discordantPairs counts pairs with (orig_i - orig_j)(comp_i - comp_j) < 0.
func discordantPairs(orig, comp []float64) int64 {
	n := len(orig)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Sort by orig ascending; ties by comp ascending so that equal-orig
	// pairs are never counted as inversions.
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := idx[a], idx[b]
		if orig[ia] != orig[ib] {
			return orig[ia] < orig[ib]
		}
		return comp[ia] < comp[ib]
	})
	seq := make([]float64, n)
	for pos, i := range idx {
		seq[pos] = comp[i]
	}
	// Count strict inversions in seq: pairs pos1 < pos2 with
	// seq[pos1] > seq[pos2].
	buf := make([]float64, n)
	var merge func(lo, hi int) int64
	merge = func(lo, hi int) int64 {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		inv := merge(lo, mid) + merge(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if seq[i] <= seq[j] {
				buf[k] = seq[i]
				i++
			} else {
				buf[k] = seq[j]
				inv += int64(mid - i)
				j++
			}
			k++
		}
		copy(buf[k:], seq[i:mid])
		copy(buf[k+mid-i:hi], seq[j:hi])
		copy(seq[lo:hi], buf[lo:hi])
		return inv
	}
	return merge(0, n)
}

// ReorderedNeighborPairs counts discordant pairs only over adjacent
// vertices — the O(m) variant the paper recommends when O(n^2) is too
// expensive (§5). Normalized by the edge count of g.
func ReorderedNeighborPairs(g *graph.Graph, orig, comp []float64) float64 {
	if g.N() != len(orig) || g.N() != len(comp) {
		panic("metrics: score length must match vertex count")
	}
	if g.M() == 0 {
		return 0
	}
	var count int64
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if (orig[u]-orig[v])*(comp[u]-comp[v]) < 0 {
			count++
		}
	}
	return float64(count) / float64(g.M())
}
