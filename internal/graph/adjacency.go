package graph

import (
	"math"
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
	// NumArcs returns the number of out-adjacency entries, the sum of every
	// Degree: 2M for an undirected graph, M for a directed one.
	NumArcs() int
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

// Range is a half-open contiguous vertex range [Lo, Hi) owned by one rank.
type Range struct {
	Lo, Hi int32
}

// Len returns the number of vertices in the range.
func (r Range) Len() int { return int(r.Hi - r.Lo) }

// PartitionByDegree splits [0, n) into parts contiguous ranges balanced by
// vertex weight degree+1 (DegreeCuts) — the degree term balances arc
// ownership, the +1 spreads isolated vertices. The split is a pure function
// of the degree sequence: every process that sees the same graph computes the
// same ranges without a metadata exchange (the paper's distributed-memory
// pipeline, §3.2, §7.3). Ranges concatenate to exactly [0, n); trailing
// ranges may be empty when parts exceeds what the weights can fill.
func PartitionByDegree(g Adjacency, parts int) []Range {
	if parts < 1 {
		parts = 1
	}
	cut := DegreeCuts(g, parts)
	ranges := make([]Range, parts)
	for i := range ranges {
		ranges[i].Lo = cut(i)
		ranges[i].Hi = cut(i + 1)
	}
	return ranges
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

// canonicalLister is a representation that decodes its canonical edges list
// by list (succinct.PackedGraph and its mapping): the walk behind both
// EdgeColumnsOf and GatherCanonical.
type canonicalLister interface {
	CanonicalBlocks() int
	ForCanonicalLists(workers int, fn func(b int, e int64, u NodeID, vs []NodeID))
}

// EdgeColumnsOf fetches the canonical edge columns of a: zero-copy views when
// the representation exposes them (raw CSR, owned == false), otherwise a
// block-parallel fill from its list walk (succinct.PackedGraph and its
// mapping, the only other forms; any other type panics, as CSROf's
// assertion does). Callers must not modify borrowed columns.
func EdgeColumnsOf(a AdjacencyEdges, workers int) (eu, ev []NodeID, owned bool) {
	if t, ok := a.(interface {
		EdgeColumns() (eu, ev []NodeID)
	}); ok {
		eu, ev = t.EdgeColumns()
		return eu, ev, false
	}
	lists := a.(canonicalLister)
	eu = make([]NodeID, a.M())
	ev = make([]NodeID, a.M())
	lists.ForCanonicalLists(workers, func(_ int, e int64, u NodeID, vs []NodeID) {
		us := eu[e : e+int64(len(vs))]
		for i := range us {
			us[i] = u
		}
		copy(ev[e:], vs)
	})
	return eu, ev, true
}

// GatherCanonical walks the canonical edges of a list by list and returns,
// in canonical order, what keep picks of them: keep(dst, e, u, vs) sees u's
// edges with IDs e, e+1, … and endpoints vs (valid only until it returns)
// and appends what it keeps to dst. A decoding representation hands out its
// validated lists (ForCanonicalLists, per directory block); a raw CSR's
// lists are runs of its zero-copy edge columns, over the edge-ID blocks of
// parallel.Blocks(m, 0, workers). Blocks run in parallel, each appending to
// its own dst, and are joined in block order — one dst for all of them when
// one worker walks them in order, presized for share·m entries (share is
// the fraction of edges keep is expected to keep) — so the result does not
// depend on workers, and no array the size of the edge set is allocated
// beyond what keep appends.
func GatherCanonical[T any](a AdjacencyEdges, workers int, share float64, keep func(dst []T, e int64, u NodeID, vs []NodeID) []T) []T {
	var blocks int
	var walk func(workers int, fn func(b int, e int64, u NodeID, vs []NodeID))
	if t, ok := a.(canonicalLister); ok {
		blocks, walk = t.CanonicalBlocks(), t.ForCanonicalLists
	} else {
		eu, ev, _ := EdgeColumnsOf(a, workers)
		blocks = parallel.Blocks(len(eu), 0, workers)
		walk = func(workers int, fn func(b int, e int64, u NodeID, vs []NodeID)) {
			parallel.ForBlocks(len(eu), blocks, workers, func(b, lo, hi int) {
				for e := lo; e < hi; {
					end := e + 1
					for end < hi && eu[end] == eu[e] {
						end++
					}
					fn(b, int64(e), eu[e], ev[e:end])
					e = end
				}
			})
		}
	}
	if parallel.Resolve(workers, blocks) == 1 {
		// Room for the expected count and four standard deviations of it.
		expect := share * float64(a.M())
		out := make([]T, 0, int(expect+4*math.Sqrt(expect))+16)
		walk(1, func(_ int, e int64, u NodeID, vs []NodeID) { out = keep(out, e, u, vs) })
		return out
	}
	parts := make([][]T, blocks)
	walk(workers, func(b int, e int64, u NodeID, vs []NodeID) { parts[b] = keep(parts[b], e, u, vs) })
	return slices.Concat(parts...)
}

// InListsOf returns the in-lists of a as one CSR: v's in-neighbors are
// nbrs[off[v]:off[v+1]], in increasing order. On a raw CSR they are
// zero-copy views of its in-CSR, or of its out-CSR when undirected (owned ==
// false; callers must not modify them). Any other representation is decoded
// once, into place: off and nbrs are sized up front — from the arc count
// when one block covers the graph, from the in-degrees (InDegree when the
// representation has it, Degree otherwise) when several do — and each block
// of parallel.Blocks(n, 0, workers) copies the lists its ScanInLists pass
// hands out straight into its own stretch of nbrs. The lists are exactly
// the ones that pass reads; a list that does not decode reads as empty.
// Only when a damaged payload decodes to other lengths than its headers
// declare does a second, serial pass refill nbrs block by block. This is the
// input of an iterative pull kernel, which pays for the decode once per
// call rather than once per iteration.
func InListsOf(a Adjacency, workers int) (off []int64, nbrs []NodeID, owned bool) {
	if g, ok := a.(*Graph); ok {
		if g.directed {
			return g.inOffsets, g.inNbrs, false
		}
		return g.offsets, g.nbrs, false
	}
	n := a.N()
	blocks := parallel.Blocks(n, 0, workers)
	// starts[b] is where block b's lists begin in nbrs.
	starts := make([]int64, blocks+1)
	if blocks == 1 {
		starts[1] = int64(a.NumArcs())
	} else {
		inDegree := a.Degree
		if d, ok := a.(interface{ InDegree(v NodeID) int }); ok {
			inDegree = d.InDegree
		}
		parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
			var s int64
			for v := lo; v < hi; v++ {
				s += int64(inDegree(NodeID(v)))
			}
			starts[b+1] = s
		})
		for b := range blocks {
			starts[b+1] += starts[b]
		}
	}
	off = make([]int64, n+1)
	nbrs = make([]NodeID, starts[blocks])
	fits := make([]bool, blocks)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		at, end := starts[b], starts[b+1]
		a.ScanInLists(NodeID(lo), NodeID(hi), nil, func(v NodeID, in []NodeID) {
			if at+int64(len(in)) <= end {
				copy(nbrs[at:], in)
			}
			at += int64(len(in))
			off[v] = int64(len(in))
		})
		fits[b] = at == end
	})
	arcs := parallel.ExclusiveScan(off, workers)
	if !slices.Contains(fits, false) {
		return off, nbrs, true
	}
	nbrs = make([]NodeID, 0, arcs)
	for b := range blocks {
		lo, hi := parallel.BlockRange(n, blocks, b)
		a.ScanInLists(NodeID(lo), NodeID(hi), nil, func(_ NodeID, in []NodeID) { nbrs = append(nbrs, in...) })
	}
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
