package traverse

import (
	"fmt"

	"slimgraph/internal/graph"
)

// ValidateTree checks a BFS result against its graph in the style of the
// Graph500 output validator: parent edges must exist, levels must be
// consistent (dist[v] == dist[parent[v]] + 1), the root must be its own
// parent at level 0, reachability must agree between Parent and Dist, and
// no graph edge may span more than one level. An arc u->v of a directed
// graph binds one way only: a reached u reaches v, at most one level on
// (dist[v] <= dist[u]+1); how far back it leads is free. It returns the
// first violation found, or nil.
func ValidateTree(g *graph.Graph, res *BFSResult, root graph.NodeID) error {
	n := g.N()
	if len(res.Parent) != n || len(res.Dist) != n {
		return fmt.Errorf("traverse: result arrays sized %d/%d for n=%d",
			len(res.Parent), len(res.Dist), n)
	}
	if res.Parent[root] != root || res.Dist[root] != 0 {
		return fmt.Errorf("traverse: root %d has parent %d dist %d",
			root, res.Parent[root], res.Dist[root])
	}
	for v := 0; v < n; v++ {
		p := res.Parent[v]
		d := res.Dist[v]
		if (p < 0) != (d < 0) {
			return fmt.Errorf("traverse: vertex %d parent/dist reachability disagree (%d, %d)", v, p, d)
		}
		if p < 0 || graph.NodeID(v) == root {
			continue
		}
		if !g.HasEdge(p, graph.NodeID(v)) {
			return fmt.Errorf("traverse: parent edge (%d, %d) not in graph", p, v)
		}
		if res.Dist[p] != d-1 {
			return fmt.Errorf("traverse: vertex %d at level %d has parent at level %d",
				v, d, res.Dist[p])
		}
	}
	// No edge may span more than one BFS level, and reachability must be
	// closed under adjacency.
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		du, dv := res.Dist[u], res.Dist[v]
		if g.Directed() && du < 0 {
			continue
		}
		if (du < 0) != (dv < 0) {
			return fmt.Errorf("traverse: edge (%d, %d) crosses the reachability frontier", u, v)
		}
		if du < 0 {
			continue
		}
		if dv > du+1 || (!g.Directed() && du > dv+1) {
			return fmt.Errorf("traverse: edge (%d, %d) spans levels %d and %d", u, v, du, dv)
		}
	}
	return nil
}
