package graph

// Transformations that materialize compressed graphs. Stage 1 of the Slim
// Graph engine marks deletions in an EdgeSet; these functions produce the
// compact CSR of the survivors (the "compression" output of §3.2).
//
// The canonical edge list of every Graph is sorted by (U, V), and removing
// edges preserves that order. The filters exploit this: FilterEdgeSet and
// Reweight stream an undirected CSR directly into the new one — a kept-edge
// bitset, an EdgeID remap, and per-vertex copies — with no []Edge
// materialization and no sorting of any kind. FilterColumns is the same
// filter over canonical edge columns (a graph that is not a CSR, or a
// directed one, whose out-CSR is the kept column itself): the kept columns
// go straight into the sort-free construction. Only Contract, whose labels
// scramble vertex order, falls back to the parallel counting-sort build.

import (
	"fmt"
	"math/bits"

	"slimgraph/internal/parallel"
)

// FilterEdgeSet returns a new graph containing exactly the canonical edges
// in keep. Vertex IDs are preserved (compression never renumbers vertices
// unless asked, so per-vertex metrics remain comparable). If reweight is
// non-nil it supplies the new weight of every kept edge and the result is
// weighted.
//
// On an undirected graph this is the direct CSR→CSR path: surviving edges
// keep their relative order, so the new canonical list is the packed old
// one, new EdgeIDs are the kept-rank of old ones, and every new adjacency
// list is a packed copy of the old adjacency — order-preserving, zero
// sorting, fully parallel. A directed graph goes through FilterColumns.
func (g *Graph) FilterEdgeSet(keep *EdgeSet, reweight func(e EdgeID) float64) *Graph {
	if keep.Len() != g.M() {
		panic(fmt.Sprintf("graph: FilterEdgeSet over universe of %d edges, graph has %d", keep.Len(), g.M()))
	}
	weight := reweight
	if weight == nil && g.weighted {
		weight = g.EdgeWeight
	}
	if g.directed {
		return FilterColumns(g.n, true, g.edgeU, g.edgeV, keep, weight, 0)
	}
	rank, mKept := keptRank(keep)
	if mKept == g.M() {
		// Nothing deleted: EdgeIDs are stable, so the topology can be
		// shared (reweight) or copied (plain filter) outright.
		if reweight != nil {
			return g.Reweight(reweight)
		}
		return g.Clone()
	}
	h := &Graph{n: g.n, weighted: weight != nil}
	h.edgeU, h.edgeV, h.edgeW = packKept(g.edgeU, g.edgeV, rank, mKept, weight, 0)
	h.offsets, h.nbrs, h.eids = packCSR(g.n, g.offsets, g.nbrs, g.eids, rank)
	return h
}

// FilterColumns is FilterEdgeSet for an input that is not a CSR: eu and ev
// are the canonical edge columns of a graph on n vertices (EdgeColumnsOf),
// and the result holds exactly the edges in keep, under weight(e) for kept
// edge e (nil: unweighted). The CSR is built from the kept edges alone, so a
// packed or mapped graph is compressed without a CSR of its input ever
// existing, and the result is Equal to FilterEdgeSet on that CSR. The columns
// must be canonical, as a decode that refuses corrupt input returns them.
// workers <= 0 means all CPUs.
func FilterColumns(n int, directed bool, eu, ev []NodeID, keep *EdgeSet, weight func(e EdgeID) float64, workers int) *Graph {
	if keep.Len() != len(eu) || len(ev) != len(eu) {
		panic(fmt.Sprintf("graph: FilterColumns over universe of %d edges, columns hold %d and %d", keep.Len(), len(eu), len(ev)))
	}
	rank, mKept := keptRank(keep)
	ku, kv, kw := packKept(eu, ev, rank, mKept, weight, workers)
	return fromSortedCanonical(n, directed, weight != nil, ku, kv, kw, workers)
}

// rankEntry is one 64-edge slab of the kept-edge rank structure: the keep
// bits and the count of kept edges in earlier slabs, packed so a single
// cache-line probe answers both "kept?" and "new EdgeID".
type rankEntry struct {
	bits uint64
	base EdgeID
}

// keptRank builds the succinct rank structure over the keep bitset and
// counts its members: the new EdgeID of a kept edge e is rank[e/64].base +
// popcount(bits below e), one cache line per probe. The whole structure is
// 16 bytes per 64 edges — cache-resident even for multi-million edge graphs
// — so the pack loops over it do no large random lookups.
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

// packCSR streams one CSR direction through the kept-edge rank structure:
// per-vertex kept counts, an exclusive scan for the new offsets, then a
// per-vertex packed copy with new EdgeIDs computed by bitset rank.
// Adjacency order (sorted by neighbor) is inherited from the input. Both
// hot loops are branch-free — the copy speculatively writes every arc and
// advances the cursor by the keep bit — and their only random accesses hit
// the cache-resident rank structure.
func packCSR(n int, offsets []int64, nbrs []NodeID, eids []EdgeID, rank []rankEntry) ([]int64, []NodeID, []EdgeID) {
	newOffsets := make([]int64, n+1)
	parallel.ForChunks(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var c int64
			for _, e := range eids[offsets[v]:offsets[v+1]] {
				c += int64((rank[e>>6].bits >> (uint(e) & 63)) & 1)
			}
			newOffsets[v] = c
		}
	})
	arcs := parallel.ExclusiveScan(newOffsets[:n], 0)
	newOffsets[n] = arcs
	newNbrs := make([]NodeID, arcs)
	newEids := make([]EdgeID, arcs)
	parallel.ForChunks(n, 0, func(lo, hi int) {
		// While the cursor is strictly below the chunk's last owned slot,
		// the copy is branch-free: every arc is written speculatively and
		// the cursor advances by the keep bit, so a dropped arc's write is
		// overwritten by the next kept one. The `pos < safe` guard is
		// almost perfectly predicted (false only near the chunk tail) and
		// keeps every write inside this chunk's slot range — chunks never
		// race on a boundary slot.
		safe := newOffsets[hi] - 1
		for v := lo; v < hi; v++ {
			pos := newOffsets[v]
			oldLo, oldHi := offsets[v], offsets[v+1]
			for i := oldLo; i < oldHi; i++ {
				e := eids[i]
				entry := rank[e>>6]
				mask := uint64(1) << (uint(e) & 63)
				if pos < safe {
					newNbrs[pos] = nbrs[i]
					newEids[pos] = entry.base + EdgeID(bits.OnesCount64(entry.bits&(mask-1)))
					pos += int64((entry.bits >> (uint(e) & 63)) & 1)
				} else if entry.bits&mask != 0 {
					newNbrs[pos] = nbrs[i]
					newEids[pos] = entry.base + EdgeID(bits.OnesCount64(entry.bits&(mask-1)))
					pos++
				}
			}
		}
	})
	return newOffsets, newNbrs, newEids
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
	return build(int(next), g.directed, g.weighted, edges), remap, nil
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
