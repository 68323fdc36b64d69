// Package mst computes minimum spanning trees/forests.
//
// MST weight is a headline invariant of Triangle Reduction: the variant that
// removes the maximum-weight edge of every sampled triangle preserves the
// MST weight exactly (cycle property; §4.3, §6.1). Kruskal is the
// implementation; the tests cross-check it against Borůvka rounds.
package mst

import (
	"sort"

	"slimgraph/internal/graph"
	"slimgraph/internal/unionfind"
)

// Result holds a minimum spanning forest.
type Result struct {
	Edges  []graph.EdgeID // forest edges, one per merge
	Weight float64        // total weight of the forest
	Trees  int            // number of trees (== connected components)
}

// Kruskal computes a minimum spanning forest by sorting edges by weight
// (ties broken by EdgeID for determinism). It reads only the canonical edge
// list, so the forest — edges, weight sum, and tree count — is identical for
// every representation of the same graph.
func Kruskal(a graph.AdjacencyEdges) *Result {
	m := a.M()
	eu, ev, _ := graph.EdgeColumnsOf(a, 1)
	ew := make([]float64, m)
	a.ForEdges(func(e graph.EdgeID, _, _ graph.NodeID, w float64) { ew[e] = w })
	order := make([]graph.EdgeID, m)
	for e := range order {
		order[e] = graph.EdgeID(e)
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := ew[order[i]], ew[order[j]]
		if wi != wj {
			return wi < wj
		}
		return order[i] < order[j]
	})
	uf := unionfind.New(a.N())
	res := &Result{}
	for _, e := range order {
		if uf.Union(eu[e], ev[e]) {
			res.Edges = append(res.Edges, e)
			res.Weight += ew[e]
		}
	}
	res.Trees = uf.Sets()
	return res
}
