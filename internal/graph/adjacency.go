package graph

import (
	"slices"

	"slimgraph/internal/bitset"
	"slimgraph/internal/parallel"
)

// Adjacency is the read-only neighborhood view shared by *Graph and any
// alternative representation — notably internal/succinct's PackedGraph,
// whose lists are decoded on the fly. Every stage-2 kernel has one body,
// written against this interface (or AdjacencyEdges), so the same loop runs
// on the raw CSR and on the packed form in place.
//
// ForNeighbors visits, and ScanInLists hands out, neighbors in increasing
// vertex order; for undirected graphs in- and out-lists are identical.
type Adjacency interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the out-degree of v.
	Degree(v NodeID) int
	// ForNeighbors invokes fn for every out-neighbor of v, in increasing
	// order.
	ForNeighbors(v NodeID, fn func(w NodeID))
	// ScanInLists invokes fn(v, nbrs) for every v in [lo, hi), ascending,
	// with v's in-neighbors in increasing order (the same set as
	// ForNeighbors for undirected graphs) — the range primitive of
	// pull-style kernels, which lets a representation resolve its directory
	// once per range rather than once per vertex. buf is scratch a decoding
	// representation reuses from list to list; the (possibly grown) buffer
	// is returned for the next call. nbrs may alias buf or the
	// representation's own storage: it is valid only until fn returns and
	// must not be modified.
	ScanInLists(lo, hi NodeID, buf []NodeID, fn func(v NodeID, nbrs []NodeID)) []NodeID
	// FirstInNeighborIn returns the smallest in-neighbor of v that is a
	// member of set, or -1 when there is none — the question a bottom-up BFS
	// step asks of every unvisited vertex. set must hold N() bits. The answer
	// needs v's list only up to the first member, so a decoding
	// representation stops decoding there.
	FirstInNeighborIn(v NodeID, set *bitset.Bits) NodeID
}

// AdjacencyEdges extends Adjacency with the canonical edge list: the view a
// whole-graph kernel (triangle counting, quality metrics, MST) needs beyond
// per-vertex neighborhoods. Both *Graph and succinct.PackedGraph implement
// it, which is what lets the server run every query path on the resident
// representation without materializing a raw CSR.
//
// Edge IDs are the canonical ones: undirected edges appear once with
// u <= v, sorted by (u, v); directed edges are the out-arcs in (u, v)
// order. ForEdges visits them in increasing EdgeID order.
type AdjacencyEdges interface {
	Adjacency
	// M returns the number of canonical edges.
	M() int
	// Directed reports whether the graph is directed.
	Directed() bool
	// Weighted reports whether canonical edge weights are stored.
	Weighted() bool
	// ForEdges invokes fn for every canonical edge in increasing EdgeID
	// order with its endpoints (u <= v for undirected graphs) and weight
	// (1 when unweighted).
	ForEdges(fn func(e EdgeID, u, v NodeID, w float64))
	// EdgeWeight returns the weight of canonical edge e (1 when unweighted).
	EdgeWeight(e EdgeID) float64
}

var (
	_ Adjacency      = (*Graph)(nil)
	_ AdjacencyEdges = (*Graph)(nil)
)

// DegreeCuts splits [0, n) into parts contiguous ranges balanced by vertex
// weight degree+1 and returns cut(k), the vertex at which part k opens: the
// first one where the weight prefix reaches k/parts of the total, so cut(0)
// = 0 and cut(parts) = n. The cuts are a pure function of the degree
// sequence — every process holding the same graph derives the same part
// from (k, parts) alone, at a cost that does not depend on parts. The
// returned function walks the prefix forward only: call it with
// nondecreasing k. One part needs no weights.
func DegreeCuts(a Adjacency, parts int) func(k int) NodeID {
	n := a.N()
	if parts <= 1 {
		return func(k int) NodeID { return NodeID(min(k, 1) * n) }
	}
	var total int64
	for v := 0; v < n; v++ {
		total += int64(a.Degree(NodeID(v))) + 1
	}
	v := 0
	var acc int64
	return func(k int) NodeID {
		// Close part k-1 at the prefix weight nearest its proportional share.
		for target := parallel.Share(total, k, parts); v < n && acc < target; v++ {
			acc += int64(a.Degree(NodeID(v))) + 1
		}
		return NodeID(v)
	}
}

// ForEdges invokes fn for every canonical edge in increasing EdgeID order,
// satisfying AdjacencyEdges.
func (g *Graph) ForEdges(fn func(e EdgeID, u, v NodeID, w float64)) {
	for e := range g.edgeU {
		w := 1.0
		if g.edgeW != nil {
			w = g.edgeW[e]
		}
		fn(EdgeID(e), g.edgeU[e], g.edgeV[e], w)
	}
}

// EdgeColumns returns read-only views of the canonical edge columns
// (endpoints of edge e are eu[e], ev[e]). Callers must not modify them.
// This is the zero-copy input of the triangle engine's edge-centric build.
func (g *Graph) EdgeColumns() (eu, ev []NodeID) {
	return g.edgeU, g.edgeV
}

// EdgeColumnsOf fetches the canonical edge columns of a: zero-copy views when
// the representation exposes them (raw CSR, owned == false), a
// block-parallel bulk decode when it supports one (packed), and a serial
// ForEdges sweep otherwise. Callers must not modify borrowed columns.
func EdgeColumnsOf(a AdjacencyEdges, workers int) (eu, ev []NodeID, owned bool) {
	if t, ok := a.(interface {
		EdgeColumns() (eu, ev []NodeID)
	}); ok {
		eu, ev = t.EdgeColumns()
		return eu, ev, false
	}
	m := a.M()
	eu = make([]NodeID, m)
	ev = make([]NodeID, m)
	if t, ok := a.(interface {
		FillEdgeColumns(eu, ev []NodeID, workers int)
	}); ok {
		t.FillEdgeColumns(eu, ev, workers)
		return eu, ev, true
	}
	a.ForEdges(func(e EdgeID, u, v NodeID, _ float64) {
		eu[e], ev[e] = u, v
	})
	return eu, ev, true
}

// InListsOf returns the in-lists of a as one CSR: v's in-neighbors are
// nbrs[off[v]:off[v+1]], in increasing order. On a raw CSR they are
// zero-copy views of its in-CSR, or of its out-CSR when undirected (owned ==
// false; callers must not modify them). Any other representation is decoded
// in one block-parallel ScanInLists pass, so its lists are exactly the ones
// ScanInLists hands out over the blocks of parallel.Blocks(n, 0, workers) —
// a list that does not decode reads as empty. This is the input of an
// iterative pull kernel, which pays for the decode once per call rather
// than once per iteration.
func InListsOf(a Adjacency, workers int) (off []int64, nbrs []NodeID, owned bool) {
	if g, ok := a.(*Graph); ok {
		if g.directed {
			return g.inOffsets, g.inNbrs, false
		}
		return g.offsets, g.nbrs, false
	}
	n := a.N()
	off = make([]int64, n+1)
	blocks := parallel.Blocks(n, 0, workers)
	lists := make([][]NodeID, blocks)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		var out []NodeID
		a.ScanInLists(NodeID(lo), NodeID(hi), nil, func(v NodeID, in []NodeID) {
			if cap(out)-len(out) < len(in) {
				// Double, not append's 1.25x: a block's lists run to
				// megabytes, and regrowth copies would cost more than the decode.
				out = slices.Grow(out, max(len(in), len(out)))
			}
			out = append(out, in...)
			off[v] = int64(len(in))
		})
		lists[b] = out
	})
	arcs := parallel.ExclusiveScan(off, workers)
	if blocks == 1 {
		return off, lists[0], true
	}
	nbrs = make([]NodeID, arcs)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, _ int) { copy(nbrs[off[lo]:], lists[b]) })
	return off, nbrs, true
}

// CSROf returns a as a raw CSR: a itself when it is one, otherwise one full
// decode of a through its Unpack (succinct.PackedGraph and its mapping). It
// is the one decode on the compression path, reached only by the schemes
// that build a graph on a new vertex set — summarize, relabel and
// tr-collapse's contraction; every core kernel reads its input in place.
func CSROf(a AdjacencyEdges, workers int) *Graph {
	if g, ok := a.(*Graph); ok {
		return g
	}
	return a.(interface{ Unpack(workers int) *Graph }).Unpack(workers)
}

// ForNeighbors invokes fn for every out-neighbor of v in increasing order,
// satisfying Adjacency.
func (g *Graph) ForNeighbors(v NodeID, fn func(w NodeID)) {
	for _, w := range g.Neighbors(v) {
		fn(w)
	}
}

// FirstInNeighborIn walks v's in-list up to the first member of set,
// satisfying Adjacency.
func (g *Graph) FirstInNeighborIn(v NodeID, set *bitset.Bits) NodeID {
	for _, u := range g.InNeighbors(v) {
		if set.Get(int(u)) {
			return u
		}
	}
	return -1
}

// ScanInLists hands fn zero-copy sub-slices of the in-CSR, satisfying
// Adjacency; buf is returned untouched.
func (g *Graph) ScanInLists(lo, hi NodeID, buf []NodeID, fn func(v NodeID, nbrs []NodeID)) []NodeID {
	for v := lo; v < hi; v++ {
		fn(v, g.InNeighbors(v))
	}
	return buf
}
