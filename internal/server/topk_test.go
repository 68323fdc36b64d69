package server

import (
	"slices"
	"sort"
	"testing"

	"slimgraph/internal/rng"
)

// topKBySort is the full-sort selection TopK replaced: every vertex ordered
// by score descending, vertex ID ascending, then the first k.
func topKBySort(ranks []float64, k int) []RankedVertex {
	k = max(0, min(k, len(ranks)))
	order := make([]int32, len(ranks))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if ranks[a] != ranks[b] {
			return ranks[a] > ranks[b]
		}
		return a < b
	})
	top := make([]RankedVertex, k)
	for i := range top {
		top[i] = RankedVertex{Node: order[i], Score: ranks[order[i]]}
	}
	return top
}

// TestTopKMatchesFullSort: the heap selection returns exactly what sorting
// every vertex returns — same vertices, same order, ties broken by vertex
// ID — on score vectors dense with ties (a handful of distinct values,
// signed zeros among them) and without, for k = 0, 1, mid-range, n - 1, n
// and beyond n, including n = 0.
func TestTopKMatchesFullSort(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(200)
		ranks := make([]float64, n)
		levels := 1 + r.Intn(6)
		for i := range ranks {
			if trial%2 == 0 {
				ranks[i] = []float64{0, -0.0, 0.5, 1, -1, 0.25}[r.Intn(levels)]
			} else {
				ranks[i] = r.Float64()
			}
		}
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 1, n + 17, -3} {
			if got, want := TopK(ranks, k), topKBySort(ranks, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, n=%d, k=%d: TopK = %v, full sort gives %v", trial, n, k, got, want)
			}
		}
	}
}
