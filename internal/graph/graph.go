// Package graph provides the in-memory graph representation used by all of
// Slim Graph: a compressed-sparse-row (CSR) structure in the style of the
// GAP Benchmark Suite, extended with canonical edge identifiers.
//
// Canonical edge IDs are the key enabler of the compression-kernel model.
// Every undirected edge {u, v} is stored once in a canonical list (with
// u <= v) and referenced from both CSR directions, so "atomically delete
// edge e" is a single bit set shared by both directions, and edge weights
// are stored exactly once. Directed graphs use the directed edge list as the
// canonical list and additionally keep an in-neighbor CSR (neighbors only).
//
// # Rebuild-free construction
//
// The package maintains one global invariant: the canonical edge list is
// always sorted by (U, V). That invariant buys construction paths that never
// run a comparison sort:
//
//   - Arbitrary edge input (Builder, FromEdges) is sorted by counting alone:
//     a stable parallel scatter by V (parallel.CountingScatter's scheme,
//     which also drops self-loops and orders undirected endpoints), then one
//     by U, leaves the edges (U, V)-ordered with duplicates adjacent, and a
//     stable parallel compaction keeps each duplicate run's minimum weight.
//     Input already in canonical order skips both scatters. The CSR
//     adjacency is then produced by a stable scatter of the arcs in edge-ID
//     order, which — because the edge list is (U, V)-sorted — emits every
//     adjacency list already sorted, so no per-vertex sort pass exists at
//     all.
//
//   - Input that is already a sorted canonical edge list (a compressed
//     graph's surviving edges, a binary CSR snapshot) skips normalization,
//     sorting, and deduplication entirely via FromCanonicalEdges and the
//     internal fromSortedCanonical path. The one filter in transform.go
//     (FilterColumns; FilterEdgeSet is it over a CSR's own columns)
//     exploits this: deleting edges packs the kept canonical columns
//     through a kept-edge bitset into that path without ever materializing
//     or sorting an []Edge.
//
// All construction paths are deterministic: for a fixed input the CSR
// arrays are bit-identical regardless of the worker count, which the
// engine's reproducibility contract (seed ⇒ identical compressed graph)
// depends on. The original serial sort-based construction lives on as
// ReferenceBuild in reference_test.go, the differential-testing oracle.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"slimgraph/internal/parallel"
)

// NodeID identifies a vertex. Vertices are always numbered [0, N).
type NodeID = int32

// EdgeID indexes the canonical edge list. For undirected graphs both CSR
// directions of an edge carry the same EdgeID.
type EdgeID = int32

// Edge is an input edge for builders and an output edge for enumeration.
type Edge struct {
	U, V NodeID
	W    float64
}

// E constructs an unweighted edge (weight 1).
func E(u, v NodeID) Edge { return Edge{U: u, V: v, W: 1} }

// WE constructs a weighted edge.
func WE(u, v NodeID, w float64) Edge { return Edge{U: u, V: v, W: w} }

// Graph is an immutable CSR graph. Compression never mutates a Graph; it
// produces a new one via FilterEdgeSet, FilterColumns, or Contract.
type Graph struct {
	n        int
	directed bool
	weighted bool

	// Out-adjacency CSR. For undirected graphs every edge appears in both
	// endpoint lists, each entry carrying the canonical EdgeID.
	offsets []int64
	nbrs    []NodeID
	eids    []EdgeID

	// In-adjacency CSR, built only for directed graphs. Nothing reads the
	// edge IDs of an in-list, so it keeps none.
	inOffsets []int64
	inNbrs    []NodeID

	// Canonical edge list; for undirected graphs edgeU[e] <= edgeV[e].
	edgeU []NodeID
	edgeV []NodeID
	edgeW []float64 // nil when unweighted
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of canonical edges (undirected edges counted once).
func (g *Graph) M() int { return len(g.edgeU) }

// NumArcs returns the number of directed adjacency entries: 2M for
// undirected graphs, M for directed ones.
func (g *Graph) NumArcs() int { return len(g.nbrs) }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Weighted reports whether the graph carries edge weights.
func (g *Graph) Weighted() bool { return g.weighted }

// Degree returns the out-degree of v (the degree, for undirected graphs).
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// InDegree returns the in-degree of v. For undirected graphs it equals
// Degree.
func (g *Graph) InDegree(v NodeID) int {
	if !g.directed {
		return g.Degree(v)
	}
	return int(g.inOffsets[v+1] - g.inOffsets[v])
}

// Neighbors returns a read-only view of v's out-neighbors, sorted by ID.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.nbrs[g.offsets[v]:g.offsets[v+1]]
}

// NeighborEdges returns parallel read-only views of v's out-neighbors and
// the canonical EdgeIDs connecting them. Callers must not modify them.
func (g *Graph) NeighborEdges(v NodeID) ([]NodeID, []EdgeID) {
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.nbrs[lo:hi], g.eids[lo:hi]
}

// InNeighbors returns a read-only view of v's in-neighbors (sorted). For
// undirected graphs this is the same as Neighbors.
func (g *Graph) InNeighbors(v NodeID) []NodeID {
	if !g.directed {
		return g.Neighbors(v)
	}
	return g.inNbrs[g.inOffsets[v]:g.inOffsets[v+1]]
}

// EdgeEndpoints returns the canonical endpoints of edge e. For undirected
// graphs u <= v.
func (g *Graph) EdgeEndpoints(e EdgeID) (u, v NodeID) {
	return g.edgeU[e], g.edgeV[e]
}

// EdgeWeight returns the weight of edge e (1 for unweighted graphs).
func (g *Graph) EdgeWeight(e EdgeID) float64 {
	if g.edgeW == nil {
		return 1
	}
	return g.edgeW[e]
}

// HasEdge reports whether an arc u->v exists (for undirected graphs,
// whether {u, v} exists), via binary search over the sorted adjacency.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.FindEdge(u, v)
	return ok
}

// FindEdge returns the canonical EdgeID of arc u->v if present.
func (g *Graph) FindEdge(u, v NodeID) (EdgeID, bool) {
	nbrs, eids := g.NeighborEdges(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return eids[i], true
	}
	return 0, false
}

// Edges returns a copy of the canonical edge list.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, g.M())
	for e := range out {
		out[e] = Edge{U: g.edgeU[e], V: g.edgeV[e], W: g.EdgeWeight(EdgeID(e))}
	}
	return out
}

// TotalWeight returns the sum of canonical edge weights (M for unweighted
// graphs).
func (g *Graph) TotalWeight() float64 {
	if g.edgeW == nil {
		return float64(g.M())
	}
	s := 0.0
	for _, w := range g.edgeW {
		s += w
	}
	return s
}

// CSRBytes is the resident size in bytes of a Graph with this shape: the
// out-CSR (64-bit offsets, 32-bit neighbor and edge-ID columns), for a
// directed graph the in-CSR (offsets and 32-bit neighbors), and the
// canonical edge list with optional weights. Slice headers and capacity
// slack are ignored. It is the one statement of the CSR layout's size:
// succinct.Stats and the server's residency gauges both report it.
func CSRBytes(n, arcs, m int, directed, weighted bool) int64 {
	offsets := int64(n+1) * 8
	b := offsets + int64(arcs)*8 + int64(m)*8
	if directed {
		b += offsets + int64(arcs)*4
	}
	if weighted {
		b += int64(m) * 8
	}
	return b
}

// MaxDegree returns the maximum out-degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(g.NumArcs()) / float64(g.n)
}

// String summarizes the graph for logs and error messages.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	w := ""
	if g.weighted {
		w = " weighted"
	}
	return fmt.Sprintf("%s%s graph: n=%d m=%d", kind, w, g.n, g.M())
}

// Validate checks the CSR invariants and returns the first violation found.
// It is used by property tests and costs O(n + m).
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if g.offsets[0] != 0 || g.offsets[g.n] != int64(len(g.nbrs)) {
		return fmt.Errorf("graph: offset endpoints [%d, %d] do not span %d arcs",
			g.offsets[0], g.offsets[g.n], len(g.nbrs))
	}
	if len(g.eids) != len(g.nbrs) {
		return fmt.Errorf("graph: eids length %d != nbrs length %d", len(g.eids), len(g.nbrs))
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: decreasing offsets at vertex %d", v)
		}
		nbrs, eids := g.NeighborEdges(NodeID(v))
		for i, w := range nbrs {
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && nbrs[i-1] > w {
				return fmt.Errorf("graph: adjacency of %d not sorted", v)
			}
			e := eids[i]
			if int(e) >= g.M() || e < 0 {
				return fmt.Errorf("graph: vertex %d slot %d has bad edge id %d", v, i, e)
			}
			eu, ev := g.EdgeEndpoints(e)
			if g.directed {
				if eu != NodeID(v) || ev != w {
					return fmt.Errorf("graph: arc %d->%d mapped to edge (%d, %d)", v, w, eu, ev)
				}
			} else if !(eu == NodeID(v) && ev == w) && !(eu == w && ev == NodeID(v)) {
				return fmt.Errorf("graph: arc %d->%d mapped to edge (%d, %d)", v, w, eu, ev)
			}
		}
	}
	if !g.directed {
		for e := 0; e < g.M(); e++ {
			if g.edgeU[e] > g.edgeV[e] {
				return fmt.Errorf("graph: canonical edge %d not normalized: (%d, %d)",
					e, g.edgeU[e], g.edgeV[e])
			}
		}
		if len(g.nbrs) != 2*g.M() {
			return fmt.Errorf("graph: %d arcs for %d undirected edges", len(g.nbrs), g.M())
		}
	}
	return nil
}

// Builder accumulates edges and produces a Graph. Self-loops are dropped and
// parallel edges are merged (keeping the minimum weight) so that Build
// always yields a simple graph.
type Builder struct {
	n        int
	directed bool
	weighted bool
	edges    []Edge
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	return &Builder{n: n, directed: directed}
}

// AddEdge adds an unweighted edge (weight 1).
func (b *Builder) AddEdge(u, v NodeID) { b.edges = append(b.edges, Edge{U: u, V: v, W: 1}) }

// AddEdges adds a batch of edges; any non-unit weight marks the graph
// weighted.
func (b *Builder) AddEdges(edges []Edge) {
	for _, e := range edges {
		if e.W != 1 {
			b.weighted = true
		}
	}
	b.edges = append(b.edges, edges...)
}

// SetWeighted forces the weighted flag, e.g. for graphs whose weights all
// happen to be 1.
func (b *Builder) SetWeighted() { b.weighted = true }

// Build constructs the CSR graph. It returns an error for out-of-range
// endpoints.
func (b *Builder) Build() (*Graph, error) { return build(b.n, b.directed, b.weighted, b.edges) }

// FromEdges builds a graph directly from an edge slice, which it neither
// modifies nor keeps; the graph is weighted when any weight is not 1. It
// panics on out-of-range endpoints (callers constructing graphs
// programmatically).
func FromEdges(n int, directed bool, edges []Edge) *Graph {
	return mustBuild(build(n, directed, slices.ContainsFunc(edges, func(e Edge) bool { return e.W != 1 }), edges))
}

// FromWeightedEdges is FromEdges with the weighted flag forced on.
func FromWeightedEdges(n int, directed bool, edges []Edge) *Graph {
	return mustBuild(build(n, directed, true, edges))
}

func mustBuild(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// build constructs a Graph from arbitrary edge input, which it does not
// modify, in linear passes. Input already in canonical order goes straight
// to deduplication. Any other input is sorted by counting alone: a stable
// scatter by V, which also drops self-loops and puts undirected endpoints
// in order (U <= V), then a stable scatter by U — a two-digit radix sort
// that leaves the edges (U, V)-ordered with each run of duplicates in input
// order. A stable parallel compaction then keeps one edge per run, with
// the run's minimum weight.
func build(n int, directed, weighted bool, input []Edge) (*Graph, error) {
	for _, e := range input {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d, %d) out of range [0, %d)", e.U, e.V, n)
		}
	}
	edges := input
	if !canonicalOrder(directed, input) {
		edges = scatterEdges(n, directed, false, input)
		edges = scatterEdges(n, directed, true, edges)
	}
	eu, ev, ew := dedupSorted(edges, weighted)
	return fromSortedCanonical(n, directed, weighted, eu, ev, ew, 0), nil
}

// canonicalOrder reports whether edges hold no self-loop, no undirected
// edge with U > V, and are (U, V, W)-lexicographically non-decreasing.
// Compressed graphs, snapshot loads, and edge lists written by this package
// arrive so, and this O(m) parallel check saves them both scatters; other
// input usually fails it within its first few edges.
func canonicalOrder(directed bool, edges []Edge) bool {
	var unordered atomic.Bool
	parallel.ForChunks(len(edges), 0, func(lo, hi int) {
		for i := lo; i < hi && !unordered.Load(); i++ {
			b := edges[i]
			if b.U == b.V || (!directed && b.U > b.V) {
				unordered.Store(true)
			} else if i > 0 {
				a := edges[i-1]
				if a.U > b.U || (a.U == b.U && (a.V > b.V || (a.V == b.V && a.W > b.W))) {
					unordered.Store(true)
				}
			}
		}
	})
	return !unordered.Load()
}

// scatterEdges returns src's edges without self-loops, undirected ones
// with U <= V, stably scattered by U when byU and by V otherwise: one digit
// of build's radix sort. It is parallel.CountingScatter with the key and
// the move written inline, since a call per edge through two closures costs
// more than the move itself.
func scatterEdges(n int, directed, byU bool, src []Edge) []Edge {
	blocks := parallel.Blocks(len(src), n, 0)
	cursor := make([]int64, blocks*n)
	parallel.ForBlocks(len(src), blocks, 0, func(b, lo, hi int) {
		local := cursor[b*n : (b+1)*n]
		for _, e := range src[lo:hi] {
			if e, k := scatterKey(e, directed, byU); e.U != e.V {
				local[k]++
			}
		}
	})
	dst := make([]Edge, parallel.ScanCursors(cursor, blocks, n, 0)[n])
	parallel.ForBlocks(len(src), blocks, 0, func(b, lo, hi int) {
		local := cursor[b*n : (b+1)*n]
		for _, e := range src[lo:hi] {
			if e, k := scatterKey(e, directed, byU); e.U != e.V {
				dst[local[k]] = e
				local[k]++
			}
		}
	})
	return dst
}

// scatterKey returns e with undirected endpoints in order (min and max
// swap them without a branch) and its key for scatterEdges.
func scatterKey(e Edge, directed, byU bool) (Edge, NodeID) {
	if !directed {
		e.U, e.V = min(e.U, e.V), max(e.U, e.V)
	}
	if byU {
		return e, e.U
	}
	return e, e.V
}

// dedupSorted removes duplicate (U, V) pairs from a (U, V)-sorted edge
// list, keeping each run's minimum weight (the first of equal minima), and
// splits the survivors into the canonical column arrays. ew is nil when
// weighted is false. A stable parallel compaction: blocks count the runs
// that start in them, then copy those runs out at their offsets.
func dedupSorted(edges []Edge, weighted bool) (eu, ev []NodeID, ew []float64) {
	blocks := parallel.Blocks(len(edges), 0, 0)
	base := make([]int64, blocks)
	parallel.ForBlocks(len(edges), blocks, 0, func(b, lo, hi int) {
		var runs int64
		for i := lo; i < hi; i++ {
			if runStart(edges, i) {
				runs++
			}
		}
		base[b] = runs
	})
	m := parallel.ExclusiveScan(base, 0)
	eu = make([]NodeID, m)
	ev = make([]NodeID, m)
	if weighted {
		ew = make([]float64, m)
	}
	parallel.ForBlocks(len(edges), blocks, 0, func(b, lo, hi int) {
		pos := base[b]
		for i := lo; i < hi; i++ {
			if !runStart(edges, i) {
				continue
			}
			e := edges[i]
			eu[pos], ev[pos] = e.U, e.V
			if weighted {
				w := e.W
				for j := i + 1; j < len(edges) && !runStart(edges, j); j++ {
					if edges[j].W < w {
						w = edges[j].W
					}
				}
				ew[pos] = w
			}
			pos++
		}
	})
	return eu, ev, ew
}

// runStart reports whether edges[i] starts a run of equal (U, V).
func runStart(edges []Edge, i int) bool {
	return i == 0 || edges[i].U != edges[i-1].U || edges[i].V != edges[i-1].V
}

// fromSortedCanonical builds the CSR directly from a canonical edge list:
// self-loop-free, deduplicated, sorted by (U, V), U <= V for undirected
// graphs. It takes ownership of the column slices. workers <= 0 means all
// CPUs.
//
// No sorting happens here. The adjacency of every vertex comes out sorted
// by construction: arcs are scattered stably in edge-ID order, and for a
// (U, V)-sorted canonical list the arcs with a fixed source x appear as
// "in-edges (neighbor < x) in increasing order, then out-edges
// (neighbor > x) in increasing order" — a sorted sequence.
func fromSortedCanonical(n int, directed, weighted bool, eu, ev []NodeID, ew []float64, workers int) *Graph {
	g := &Graph{n: n, directed: directed, weighted: weighted, edgeU: eu, edgeV: ev, edgeW: ew}
	m := len(eu)
	if directed {
		// Out-CSR: the canonical list is sorted by U, so the adjacency is
		// the ev column itself (shared — Graphs are immutable) and EdgeIDs
		// are the identity.
		g.offsets = countsToOffsets(parallel.Histogram(m, n, workers,
			func(e int) int { return int(eu[e]) }), workers)
		g.nbrs = ev
		g.eids = make([]EdgeID, m)
		parallel.ForChunks(m, workers, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				g.eids[e] = EdgeID(e)
			}
		})
		// In-CSR: stable scatter by destination; sortedness by U within
		// each destination bucket follows from the edge-ID order.
		g.inNbrs = make([]NodeID, m)
		g.inOffsets = parallel.CountingScatter(m, n, workers,
			func(e int) int { return int(ev[e]) },
			func(e int, pos int64) { g.inNbrs[pos] = eu[e] })
		return g
	}
	// Undirected: scatter both arcs of every edge, in edge-ID order (U→V,
	// then V→U), stably by source — a blocked counting scatter over the
	// edges, each block counting and then placing both arcs of its edges at
	// its own cursors.
	blocks := parallel.Blocks(m, n, workers)
	cursor := make([]int64, blocks*n)
	parallel.ForBlocks(m, blocks, workers, func(b, lo, hi int) {
		local := cursor[b*n : (b+1)*n]
		for e := lo; e < hi; e++ {
			local[eu[e]]++
			local[ev[e]]++
		}
	})
	g.offsets = parallel.ScanCursors(cursor, blocks, n, workers)
	g.nbrs = make([]NodeID, 2*m)
	g.eids = make([]EdgeID, 2*m)
	parallel.ForBlocks(m, blocks, workers, func(b, lo, hi int) {
		local := cursor[b*n : (b+1)*n]
		for e := lo; e < hi; e++ {
			u, v := eu[e], ev[e]
			pu := local[u]
			g.nbrs[pu], g.eids[pu] = v, EdgeID(e)
			local[u] = pu + 1
			pv := local[v]
			g.nbrs[pv], g.eids[pv] = u, EdgeID(e)
			local[v] = pv + 1
		}
	})
	return g
}

// countsToOffsets converts per-vertex counts (length n) into CSR offsets
// (length n+1) in place of a fresh slice.
func countsToOffsets(counts []int64, workers int) []int64 {
	offsets := make([]int64, len(counts)+1)
	copy(offsets, counts)
	total := parallel.ExclusiveScan(offsets[:len(counts)], workers)
	offsets[len(counts)] = total
	return offsets
}

// FromCanonicalEdges builds a Graph from an edge list that is already
// canonical: no self-loops, no duplicate (U, V) pairs, sorted by (U, V),
// and U <= V for undirected graphs. It validates those invariants in O(m)
// (parallel) and then constructs the CSR with zero sorting — the fast path
// for loading binary CSR snapshots and for any producer that emits edges in
// canonical order. It returns an error if the input is not canonical; use
// Builder/FromEdges for arbitrary input. workers <= 0 uses all CPUs; the
// output never depends on the worker count.
func FromCanonicalEdges(n int, directed, weighted bool, edges []Edge, workers int) (*Graph, error) {
	bad := parallel.SumInt64(len(edges), workers, func(i int) int64 {
		e := edges[i]
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n || e.U == e.V {
			return 1
		}
		if !directed && e.U > e.V {
			return 1
		}
		if i > 0 {
			p := edges[i-1]
			if e.U < p.U || (e.U == p.U && e.V <= p.V) {
				return 1
			}
		}
		return 0
	})
	if bad != 0 {
		for i, e := range edges {
			switch {
			case e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n:
				return nil, fmt.Errorf("graph: edge %d (%d, %d) out of range [0, %d)", i, e.U, e.V, n)
			case e.U == e.V:
				return nil, fmt.Errorf("graph: edge %d is a self-loop at vertex %d", i, e.U)
			case !directed && e.U > e.V:
				return nil, fmt.Errorf("graph: edge %d (%d, %d) not normalized (U > V)", i, e.U, e.V)
			case i > 0 && (e.U < edges[i-1].U || (e.U == edges[i-1].U && e.V <= edges[i-1].V)):
				return nil, fmt.Errorf("graph: edge list not strictly (U, V)-sorted at index %d", i)
			}
		}
		return nil, fmt.Errorf("graph: edge list not canonical")
	}
	eu := make([]NodeID, len(edges))
	ev := make([]NodeID, len(edges))
	var ew []float64
	if weighted {
		ew = make([]float64, len(edges))
	}
	parallel.ForChunks(len(edges), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			eu[i] = edges[i].U
			ev[i] = edges[i].V
			if weighted {
				ew[i] = edges[i].W
			}
		}
	})
	return fromSortedCanonical(n, directed, weighted, eu, ev, ew, workers), nil
}

// Equal reports whether g and h are structurally identical: same vertex
// count, flags, canonical edge list (IDs, endpoints, weights), and CSR
// arrays. This is bit-level equality, the relation the differential tests
// check between construction paths.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.directed != h.directed || g.weighted != h.weighted || g.M() != h.M() {
		return false
	}
	if !int64sEqual(g.offsets, h.offsets) || !int64sEqual(g.inOffsets, h.inOffsets) {
		return false
	}
	if !nodesEqual(g.nbrs, h.nbrs) || !nodesEqual(g.inNbrs, h.inNbrs) {
		return false
	}
	if !nodesEqual(g.eids, h.eids) {
		return false
	}
	if !nodesEqual(g.edgeU, h.edgeU) || !nodesEqual(g.edgeV, h.edgeV) {
		return false
	}
	for e := 0; e < g.M(); e++ {
		if g.EdgeWeight(EdgeID(e)) != h.EdgeWeight(EdgeID(e)) {
			return false
		}
	}
	return true
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func nodesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
