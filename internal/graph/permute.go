package graph

import (
	"fmt"

	"slimgraph/internal/parallel"
)

// ValidatePermutation checks that perm is a bijection of [0, n): length n,
// every value in range, no value repeated. It is the guard every consumer of
// a stored vertex permutation (packed snapshots, relabel schemes) runs
// before indexing with it.
func ValidatePermutation(n int, perm []NodeID) error {
	if len(perm) != n {
		return fmt.Errorf("graph: permutation has %d entries for %d vertices", len(perm), n)
	}
	seen := make([]bool, n)
	for v, p := range perm {
		if p < 0 || int(p) >= n {
			return fmt.Errorf("graph: permutation maps %d to out-of-range %d", v, p)
		}
		if seen[p] {
			return fmt.Errorf("graph: permutation is not a bijection: %d hit twice", p)
		}
		seen[p] = true
	}
	return nil
}

// InvertPermutation returns inv with inv[perm[v]] = v. perm must be a
// bijection of [0, len(perm)).
func InvertPermutation(perm []NodeID, workers int) []NodeID {
	inv := make([]NodeID, len(perm))
	parallel.ForChunks(len(perm), workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			inv[perm[v]] = NodeID(v)
		}
	})
	return inv
}

// Permute returns the graph relabeled by perm (perm[old] = new): vertex v of
// g becomes vertex perm[v], edges and weights carried over. perm must be a
// bijection of [0, n); the error reports the first violation. A relabeling
// scrambles canonical order, so the result is rebuilt through the parallel
// counting-sort path — deterministic for any worker count.
func (g *Graph) Permute(perm []NodeID, workers int) (*Graph, error) {
	if err := ValidatePermutation(g.n, perm); err != nil {
		return nil, err
	}
	edges := make([]Edge, g.M())
	parallel.ForChunks(g.M(), workers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			w := 1.0
			if g.edgeW != nil {
				w = g.edgeW[e]
			}
			edges[e] = Edge{U: perm[g.edgeU[e]], V: perm[g.edgeV[e]], W: w}
		}
	})
	return build(g.n, g.directed, g.weighted, edges)
}
