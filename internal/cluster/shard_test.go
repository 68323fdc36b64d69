package cluster

import (
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// expandFrontierSorted is the sort-and-unique expandFrontier the n-bit set
// replaced, kept as the reference the new one must match element for
// element.
func expandFrontierSorted(g graph.Adjacency, r Range, frontier []int32) []int32 {
	next := []int32{}
	for _, u := range frontier {
		if !r.Contains(u) {
			continue
		}
		g.ForNeighbors(u, func(w graph.NodeID) {
			next = append(next, int32(w))
		})
	}
	sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
	return slices.Compact(next)
}

// TestExpandFrontierMatchesSortReference drives random frontiers — with
// duplicates, and mostly made of vertices the range does not own — through
// both implementations, over raw and packed forms of a skewed and a
// regular graph, for every part of several partitions.
func TestExpandFrontierMatchesSortReference(t *testing.T) {
	rnd := rand.New(rand.NewPCG(1, 2))
	for name, g := range map[string]*graph.Graph{
		"rmat": gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3),
		"grid": gen.Grid2D(20, 23, false),
	} {
		for form, adj := range map[string]graph.Adjacency{"raw": g, "packed": succinct.Pack(g, 1)} {
			for _, of := range []int{1, 2, 3, 5} {
				for part, r := range PartitionByDegree(adj, of) {
					for _, size := range []int{0, 1, 7, 200, 3 * g.N()} {
						frontier := make([]int32, size)
						for i := range frontier {
							frontier[i] = rnd.Int32N(int32(g.N()))
						}
						got, want := expandFrontier(adj, r, frontier), expandFrontierSorted(adj, r, frontier)
						if !slices.Equal(got, want) {
							t.Fatalf("%s/%s part %d of %d, frontier of %d: got %d vertices, want %d:\n got %v\nwant %v",
								name, form, part, of, size, len(got), len(want), got, want)
						}
					}
				}
			}
		}
	}
}
