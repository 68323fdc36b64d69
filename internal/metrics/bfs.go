package metrics

import (
	"slimgraph/internal/graph"
	"slimgraph/internal/traverse"
)

// BFSCriticalResult reports the critical-edge retention of a compressed
// graph for one root.
type BFSCriticalResult struct {
	Root               graph.NodeID
	OriginalCritical   int // |Ecr|
	CompressedCritical int // |Ẽcr|
}

// Retention returns |Ẽcr| / |Ecr| — the §5 BFS metric.
func (r *BFSCriticalResult) Retention() float64 {
	if r.OriginalCritical == 0 {
		return 1
	}
	return float64(r.CompressedCritical) / float64(r.OriginalCritical)
}

// CriticalEdgeCount counts the critical edges of a BFS traversal per the
// paper's Figure 4 taxonomy: tree edges plus potential edges — every edge
// connecting consecutive BFS levels, i.e. any edge that could appear in some
// BFS tree from the same root. Edges with an unreachable endpoint are never
// critical. This is the |Ecr| that retention normalizes by.
func CriticalEdgeCount(a graph.AdjacencyEdges, dist []int32) int {
	count := 0
	a.ForEdges(func(_ graph.EdgeID, u, v graph.NodeID, _ float64) {
		du, dv := dist[u], dist[v]
		if du < 0 || dv < 0 {
			return
		}
		if du-dv == 1 || dv-du == 1 {
			count++
		}
	})
	return count
}

// BFSCritical runs BFS from root on both graphs (which must share a vertex
// set), traversing each in place, and compares critical-edge counts.
func BFSCritical(orig, compressed graph.AdjacencyEdges, root graph.NodeID, workers int) *BFSCriticalResult {
	if orig.N() != compressed.N() {
		panic("metrics: graphs must share a vertex set")
	}
	do := traverse.BFS(orig, root, workers)
	dc := traverse.BFS(compressed, root, workers)
	return &BFSCriticalResult{
		Root:               root,
		OriginalCritical:   CriticalEdgeCount(orig, do.Dist),
		CompressedCritical: CriticalEdgeCount(compressed, dc.Dist),
	}
}

// BFSCriticalMulti averages retention over several roots, as the paper does
// when reporting that accuracy "is maintained when different root vertices
// are picked".
func BFSCriticalMulti(orig, compressed graph.AdjacencyEdges, roots []graph.NodeID, workers int) float64 {
	if len(roots) == 0 {
		return 1
	}
	total := 0.0
	for _, r := range roots {
		total += BFSCritical(orig, compressed, r, workers).Retention()
	}
	return total / float64(len(roots))
}
