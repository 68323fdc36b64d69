// Package mst computes minimum spanning trees/forests.
//
// MST weight is a headline invariant of Triangle Reduction: the variant that
// removes the maximum-weight edge of every sampled triangle preserves the
// MST weight exactly (cycle property; §4.3, §6.1). Kruskal is the reference
// implementation and Borůvka the parallel-flavor cross-check.
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

// Boruvka computes a minimum spanning forest with Borůvka rounds: each
// component repeatedly selects its lightest outgoing edge. Ties are broken
// by EdgeID, which guarantees termination and a forest identical in weight
// to Kruskal's.
func Boruvka(g *graph.Graph) *Result {
	n := g.N()
	uf := unionfind.New(n)
	res := &Result{}
	for {
		// best[c] = lightest outgoing edge of component c.
		best := make(map[graph.NodeID]graph.EdgeID)
		for e := 0; e < g.M(); e++ {
			id := graph.EdgeID(e)
			u, v := g.EdgeEndpoints(id)
			cu, cv := graph.NodeID(uf.Find(u)), graph.NodeID(uf.Find(v))
			if cu == cv {
				continue
			}
			for _, c := range [2]graph.NodeID{cu, cv} {
				cur, ok := best[c]
				if !ok || less(g, id, cur) {
					best[c] = id
				}
			}
		}
		if len(best) == 0 {
			break
		}
		merged := false
		// Deterministic merge order: by component label.
		comps := make([]graph.NodeID, 0, len(best))
		for c := range best {
			comps = append(comps, c)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
		for _, c := range comps {
			e := best[c]
			u, v := g.EdgeEndpoints(e)
			if uf.Union(u, v) {
				res.Edges = append(res.Edges, e)
				res.Weight += g.EdgeWeight(e)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	res.Trees = uf.Sets()
	return res
}

func less(g *graph.Graph, a, b graph.EdgeID) bool {
	wa, wb := g.EdgeWeight(a), g.EdgeWeight(b)
	if wa != wb {
		return wa < wb
	}
	return a < b
}
