// Package components computes connected components.
//
// The number of connected components is one of the twelve graph properties
// of Table 3: Triangle Reduction and spanners preserve it exactly, spectral
// sparsification w.h.p., and uniform sampling can increase it by up to pm.
// Two interchangeable algorithms are provided (BFS sweep and parallel label
// propagation); tests cross-check them against a union-find pass.
package components

import (
	"sync/atomic"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Labels assigns every vertex a component label via repeated BFS. Labels
// are the smallest vertex ID in each component, so output is deterministic,
// and the same on every representation: the sweep depends only on neighbor
// visit order, which Adjacency fixes to increasing ID.
func Labels(a graph.Adjacency) []graph.NodeID {
	n := a.N()
	label := make([]graph.NodeID, n)
	for i := range label {
		label[i] = -1
	}
	queue := make([]graph.NodeID, 0, 1024)
	// One visit closure for the whole sweep, rebinding root per component,
	// so the per-vertex neighbor scan allocates nothing.
	var root graph.NodeID
	visit := func(v graph.NodeID) {
		if label[v] < 0 {
			label[v] = root
			queue = append(queue, v)
		}
	}
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		root = graph.NodeID(s)
		label[s] = root
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			a.ForNeighbors(u, visit)
		}
	}
	return label
}

// LabelsPropagation computes component labels by parallel min-label
// propagation (Shiloach–Vishkin flavor): every vertex repeatedly adopts the
// minimum label in its closed neighborhood until a fixpoint.
func LabelsPropagation(g *graph.Graph, workers int) []graph.NodeID {
	n := g.N()
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	for changed := int64(1); changed != 0; {
		changed = 0
		parallel.ForChunks(n, workers, func(lo, hi int) {
			var local int64
			for v := lo; v < hi; v++ {
				min := atomic.LoadInt32(&label[v])
				for _, w := range g.Neighbors(graph.NodeID(v)) {
					if l := atomic.LoadInt32(&label[w]); l < min {
						min = l
					}
				}
				if min < atomic.LoadInt32(&label[v]) {
					atomic.StoreInt32(&label[v], min)
					local++
				}
			}
			if local > 0 {
				atomic.AddInt64(&changed, local)
			}
		})
	}
	// Min-label propagation converges to per-component minima, which makes
	// it directly comparable with Labels.
	out := make([]graph.NodeID, n)
	for i, l := range label {
		out[i] = graph.NodeID(l)
	}
	return out
}

// Count returns the number of connected components. Isolated vertices count
// as components of size 1, matching the paper's convention (removing all
// edges of a vertex adds a component).
func Count(a graph.Adjacency) int {
	return CountLabels(Labels(a))
}

// CountLabels returns the number of distinct labels.
func CountLabels(labels []graph.NodeID) int {
	seen := make(map[graph.NodeID]struct{}, 64)
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// Sizes returns component sizes keyed by label.
func Sizes(labels []graph.NodeID) map[graph.NodeID]int {
	sizes := make(map[graph.NodeID]int)
	for _, l := range labels {
		sizes[l]++
	}
	return sizes
}

// Largest returns the size of the largest component.
func Largest(labels []graph.NodeID) int {
	best := 0
	for _, s := range Sizes(labels) {
		if s > best {
			best = s
		}
	}
	return best
}

// SameComponents reports whether two labelings induce the same partition of
// the vertex set (labels themselves may differ).
func SameComponents(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := make(map[graph.NodeID]graph.NodeID)
	rev := make(map[graph.NodeID]graph.NodeID)
	for i := range a {
		if l, ok := fwd[a[i]]; ok && l != b[i] {
			return false
		}
		if l, ok := rev[b[i]]; ok && l != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}
