// Package oracle holds what tests of more than one package share: reference
// implementations the production kernels are compared against, and hostile
// inputs every parsing route must refuse. It is test-only: no non-test file
// may import it (CI enforces this), so nothing here is ever "the real path".
// Its own test is the catalog model (catalog_test.go, TestCatalogModel):
// seeded random sequences of creates, racing creates, compresses, queries,
// deletes, restarts and crashes against a server node with a data
// directory, each answer checked against a model of the catalog and the
// disk tier and against a reference node without one.
//
// This file preserves the pre-engine triangle enumeration verbatim, as
// graph.ReferenceBuild (internal/graph/reference_test.go) preserves the
// sort-based CSR construction: tests pin triangles.Engine to it (identical
// triangles, identical sequential order, identical kernel deletion sets).
// It merge-scans the full adjacency lists of both endpoints per edge and
// recomputes degrees on every rank comparison — exactly the constant
// factors the Engine removes.
package oracle

import (
	"sync/atomic"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/triangles"
)

// referenceRankLess orders vertices by (degree, ID); the orientation that
// bounds the intersection work.
func referenceRankLess(g *graph.Graph, a, b graph.NodeID) bool {
	da, db := g.Degree(a), g.Degree(b)
	if da != db {
		return da < db
	}
	return a < b
}

// ReferenceForEach is the pre-engine ForEach: raw edge-index chunking over
// full-adjacency merge scans. Semantics match Engine.ForEach, including the
// sequential emission order.
func ReferenceForEach(g *graph.Graph, workers int, fn func(t triangles.Triangle)) {
	if g.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	m := g.M()
	parallel.ForChunks(m, workers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			referenceEmitFromEdge(g, graph.EdgeID(e), fn)
		}
	})
}

// referenceEmitFromEdge finds all triangles whose lowest-ranked edge is e.
func referenceEmitFromEdge(g *graph.Graph, e graph.EdgeID, fn func(triangles.Triangle)) {
	u, v := g.EdgeEndpoints(e)
	if referenceRankLess(g, v, u) {
		u, v = v, u
	}
	// rank(u) < rank(v); look for common neighbors w with rank(w) > rank(v).
	un, ue := g.NeighborEdges(u)
	vn, ve := g.NeighborEdges(v)
	i, j := 0, 0
	for i < len(un) && j < len(vn) {
		switch {
		case un[i] < vn[j]:
			i++
		case un[i] > vn[j]:
			j++
		default:
			w := un[i]
			if w != u && w != v && referenceRankLess(g, v, w) {
				fn(triangles.Triangle{
					V: [3]graph.NodeID{u, v, w},
					E: [3]graph.EdgeID{e, ue[i], ve[j]},
				})
			}
			i++
			j++
		}
	}
}

// ReferenceCount is the pre-engine Count: one atomic add per triangle.
func ReferenceCount(g *graph.Graph, workers int) int64 {
	var total int64
	ReferenceForEach(g, workers, func(triangles.Triangle) { atomic.AddInt64(&total, 1) })
	return total
}

// ReferencePerVertex is the pre-engine PerVertex: three atomic adds on a
// shared array per triangle.
func ReferencePerVertex(g *graph.Graph, workers int) []int64 {
	counts := make([]int64, g.N())
	ReferenceForEach(g, workers, func(t triangles.Triangle) {
		for _, v := range t.V {
			atomic.AddInt64(&counts[v], 1)
		}
	})
	return counts
}

// ReferencePerEdge is the pre-engine PerEdge: three atomic adds on a shared
// array per triangle.
func ReferencePerEdge(g *graph.Graph, workers int) []int64 {
	counts := make([]int64, g.M())
	ReferenceForEach(g, workers, func(t triangles.Triangle) {
		for _, e := range t.E {
			atomic.AddInt64(&counts[e], 1)
		}
	})
	return counts
}

// ReferenceList materializes all triangles in the oracle order (ascending
// lowest-ranked EdgeID, then ascending third-vertex ID).
func ReferenceList(g *graph.Graph) []triangles.Triangle {
	var out []triangles.Triangle
	ReferenceForEach(g, 1, func(t triangles.Triangle) { out = append(out, t) })
	return out
}
