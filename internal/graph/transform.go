package graph

// Transformations that materialize compressed graphs. Stage 1 of the Slim
// Graph engine marks deletions in an EdgeSet; FilterColumns produces the
// compact CSR of the survivors (the "compression" output of §3.2) from the
// kept canonical edge columns, whatever representation they were read from.
//
// The canonical edge list of every graph is sorted by (U, V), and removing
// edges preserves that order: the filter packs the kept columns through a
// kept-edge rank structure and hands them to the sort-free construction, so
// no []Edge is materialized and nothing is sorted. Only Contract, whose
// labels scramble vertex order, falls back to the parallel counting-sort
// build.

import (
	"fmt"
	"math/bits"

	"slimgraph/internal/parallel"
)

// FilterEdgeSet returns a new graph containing exactly the canonical edges
// in keep. Vertex IDs are preserved (compression never renumbers vertices
// unless asked, so per-vertex metrics remain comparable). If reweight is
// non-nil it supplies the new weight of every kept edge and the result is
// weighted. It is FilterColumns over the graph's own canonical columns, on
// all CPUs.
func (g *Graph) FilterEdgeSet(keep *EdgeSet, reweight func(e EdgeID) float64) *Graph {
	weight := reweight
	if weight == nil && g.weighted {
		weight = g.EdgeWeight
	}
	return FilterColumns(g.n, g.directed, g.edgeU, g.edgeV, keep, weight, 0)
}

// FilterColumns is the one filter: eu and ev are the canonical edge columns
// of a graph on n vertices (EdgeColumnsOf), and the result holds exactly the
// edges in keep, under weight(e) for kept edge e (nil: unweighted). The CSR
// is built from the kept edges alone, so a packed or mapped graph is
// compressed without a CSR of its input ever existing. The columns must be
// canonical, as a CSR's are and as a decode that refuses corrupt input
// returns them. workers <= 0 means all CPUs.
func FilterColumns(n int, directed bool, eu, ev []NodeID, keep *EdgeSet, weight func(e EdgeID) float64, workers int) *Graph {
	if keep.Len() != len(eu) || len(ev) != len(eu) {
		panic(fmt.Sprintf("graph: FilterColumns over universe of %d edges, columns hold %d and %d", keep.Len(), len(eu), len(ev)))
	}
	rank, mKept := keptRank(keep)
	ku, kv, kw := packKept(eu, ev, rank, mKept, weight, workers)
	return fromSortedCanonical(n, directed, weight != nil, ku, kv, kw, workers)
}

// rankEntry is one 64-edge slab of the kept-edge rank structure: the keep
// bits and the count of kept edges in earlier slabs, side by side so the
// pack reads them as one stream.
type rankEntry struct {
	bits uint64
	base EdgeID
}

// keptRank builds the rank structure over the keep bitset and counts its
// members: the new EdgeID of a kept edge e is rank[e/64].base +
// popcount(bits below e). Every slab knows its starting rank, so packKept's
// chunks of slabs run independently of each other.
func keptRank(keep *EdgeSet) ([]rankEntry, int) {
	words := keep.words()
	rank := make([]rankEntry, len(words))
	run := 0
	for wi, w := range words {
		rank[wi] = rankEntry{bits: w, base: EdgeID(run)}
		run += bits.OnesCount64(w)
	}
	return rank, run
}

// packKept packs the kept canonical edges into fresh columns with
// trailing-zero iteration over the set bits (each word knows its starting
// rank), with weight(e) per kept edge when weight is non-nil.
func packKept(eu, ev []NodeID, rank []rankEntry, mKept int, weight func(e EdgeID) float64, workers int) (ku, kv []NodeID, kw []float64) {
	ku = make([]NodeID, mKept)
	kv = make([]NodeID, mKept)
	if weight != nil {
		kw = make([]float64, mKept)
	}
	parallel.ForChunks(len(rank), workers, func(wlo, whi int) {
		for wi := wlo; wi < whi; wi++ {
			pos := rank[wi].base
			for w := rank[wi].bits; w != 0; w &= w - 1 {
				e := wi*64 + bits.TrailingZeros64(w)
				ku[pos], kv[pos] = eu[e], ev[e]
				if weight != nil {
					kw[pos] = weight(EdgeID(e))
				}
				pos++
			}
		}
	})
	return ku, kv, kw
}

// Reweight returns a copy of the graph with every canonical edge weight
// replaced by weight(e). The result is always weighted. The topology arrays
// (offsets, adjacency, EdgeIDs, endpoints) are shared with g — Graphs are
// immutable — so only the weight column is materialized.
func (g *Graph) Reweight(weight func(e EdgeID) float64) *Graph {
	h := &Graph{
		n: g.n, directed: g.directed, weighted: true,
		offsets: g.offsets, nbrs: g.nbrs, eids: g.eids,
		inOffsets: g.inOffsets, inNbrs: g.inNbrs,
		edgeU: g.edgeU, edgeV: g.edgeV,
		edgeW: make([]float64, g.M()),
	}
	parallel.ForChunks(g.M(), 0, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			h.edgeW[e] = weight(EdgeID(e))
		}
	})
	return h
}

// Contract merges vertices according to mapping, which assigns every old
// vertex a label; vertices sharing a label become one vertex. Labels may be
// arbitrary values in [0, n); they are compacted to [0, n'). Parallel edges
// are merged (minimum weight kept) and self-loops dropped. Triangle
// p-Reduction by Collapse uses this to fold sampled triangles into single
// vertices. It returns the contracted graph and the old->new vertex map.
//
// Contract panics with a descriptive message if mapping has the wrong
// length or contains a label outside [0, n); use ContractChecked to get the
// validation failure as an error instead.
func (g *Graph) Contract(mapping []NodeID) (*Graph, []NodeID) {
	h, remap, err := g.ContractChecked(mapping)
	if err != nil {
		panic(err.Error())
	}
	return h, remap
}

// ContractChecked is Contract with label validation reported as an error:
// mapping must have length N() and every label must lie in [0, N()).
func (g *Graph) ContractChecked(mapping []NodeID) (*Graph, []NodeID, error) {
	if len(mapping) != g.n {
		return nil, nil, fmt.Errorf("graph: Contract mapping has length %d for a graph with %d vertices",
			len(mapping), g.n)
	}
	for v, label := range mapping {
		if label < 0 || int(label) >= g.n {
			return nil, nil, fmt.Errorf("graph: Contract label %d of vertex %d outside [0, %d)",
				label, v, g.n)
		}
	}
	compact := make([]NodeID, g.n)
	for i := range compact {
		compact[i] = -1
	}
	next := NodeID(0)
	remap := make([]NodeID, g.n)
	for v := 0; v < g.n; v++ {
		label := mapping[v]
		if compact[label] < 0 {
			compact[label] = next
			next++
		}
		remap[v] = compact[label]
	}
	edges := make([]Edge, g.M())
	parallel.ForChunks(g.M(), 0, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			edges[e] = Edge{
				U: remap[g.edgeU[e]], V: remap[g.edgeV[e]],
				W: g.EdgeWeight(EdgeID(e)),
			}
		}
	})
	// Contracted endpoints are in arbitrary label order: the full build
	// (canonicalize, counting sort, min-weight dedup) applies.
	return mustBuild(build(int(next), g.directed, g.weighted, edges)), remap, nil
}

// Clone returns a deep structural copy (used by tests that need to assert
// immutability of inputs). It copies the CSR arrays directly instead of
// rebuilding.
func (g *Graph) Clone() *Graph {
	return &Graph{
		n: g.n, directed: g.directed, weighted: g.weighted,
		offsets:   append([]int64(nil), g.offsets...),
		nbrs:      append([]NodeID(nil), g.nbrs...),
		eids:      append([]EdgeID(nil), g.eids...),
		inOffsets: append([]int64(nil), g.inOffsets...),
		inNbrs:    append([]NodeID(nil), g.inNbrs...),
		edgeU:     append([]NodeID(nil), g.edgeU...),
		edgeV:     append([]NodeID(nil), g.edgeV...),
		edgeW:     append([]float64(nil), g.edgeW...),
	}
}
