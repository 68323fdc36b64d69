package graph

import "sort"

// ReferenceBuild is the original serial sort-based construction: global
// sort.Slice over the normalized edge list, serial dedup, cursor scatter,
// and a sort of every adjacency list. It produces a Graph bit-identical to
// the parallel counting-sort path and exists as the oracle for differential
// property tests (differential_test.go).
func ReferenceBuild(n int, directed, weighted bool, input []Edge) *Graph {
	edges := make([]Edge, 0, len(input))
	for _, e := range input {
		if e.U == e.V {
			continue
		}
		if !directed && e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		if edges[i].V != edges[j].V {
			return edges[i].V < edges[j].V
		}
		return edges[i].W < edges[j].W
	})
	dst := 0
	for i := range edges {
		if i > 0 && edges[i].U == edges[dst-1].U && edges[i].V == edges[dst-1].V {
			continue
		}
		edges[dst] = edges[i]
		dst++
	}
	edges = edges[:dst]

	g := &Graph{n: n, directed: directed, weighted: weighted}
	m := len(edges)
	g.edgeU = make([]NodeID, m)
	g.edgeV = make([]NodeID, m)
	if weighted {
		g.edgeW = make([]float64, m)
	}
	for e, ed := range edges {
		g.edgeU[e] = ed.U
		g.edgeV[e] = ed.V
		if weighted {
			g.edgeW[e] = ed.W
		}
	}

	deg := make([]int64, n+1)
	for _, e := range edges {
		deg[e.U+1]++
		if !directed {
			deg[e.V+1]++
		}
	}
	g.offsets = serialPrefixSum(deg)
	arcs := g.offsets[n]
	g.nbrs = make([]NodeID, arcs)
	g.eids = make([]EdgeID, arcs)
	cursor := make([]int64, n)
	copy(cursor, g.offsets[:n])
	for e, ed := range edges {
		referencePlace(g.nbrs, g.eids, cursor, ed.U, ed.V, EdgeID(e))
		if !directed {
			referencePlace(g.nbrs, g.eids, cursor, ed.V, ed.U, EdgeID(e))
		}
	}
	referenceSortAdjacency(n, g.offsets, g.nbrs, g.eids)

	if directed {
		indeg := make([]int64, n+1)
		for _, e := range edges {
			indeg[e.V+1]++
		}
		g.inOffsets = serialPrefixSum(indeg)
		g.inNbrs = make([]NodeID, m)
		g.inEids = make([]EdgeID, m)
		incur := make([]int64, n)
		copy(incur, g.inOffsets[:n])
		for e, ed := range edges {
			referencePlace(g.inNbrs, g.inEids, incur, ed.V, ed.U, EdgeID(e))
		}
		referenceSortAdjacency(n, g.inOffsets, g.inNbrs, g.inEids)
	}
	return g
}

func referencePlace(nbrs []NodeID, eids []EdgeID, cursor []int64, from, to NodeID, e EdgeID) {
	i := cursor[from]
	nbrs[i] = to
	eids[i] = e
	cursor[from] = i + 1
}

func serialPrefixSum(counts []int64) []int64 {
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	return counts
}

func referenceSortAdjacency(n int, offsets []int64, nbrs []NodeID, eids []EdgeID) {
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		nb, ei := nbrs[lo:hi], eids[lo:hi]
		sort.Sort(&adjSorter{nb, ei})
	}
}

type adjSorter struct {
	nbrs []NodeID
	eids []EdgeID
}

func (s *adjSorter) Len() int           { return len(s.nbrs) }
func (s *adjSorter) Less(i, j int) bool { return s.nbrs[i] < s.nbrs[j] }
func (s *adjSorter) Swap(i, j int) {
	s.nbrs[i], s.nbrs[j] = s.nbrs[j], s.nbrs[i]
	s.eids[i], s.eids[j] = s.eids[j], s.eids[i]
}
