// Package props measures the graph properties whose preservation Table 3
// bounds, one algorithm per property. It is the evaluation's measurement
// code (internal/experiments, metrics.Quality and the api.go wrappers), not
// a compression step, and no endpoint serves it.
//
//   - Coloring number C_G (ColoringNumber): EO p-1-TR keeps it within a
//     factor 1/3 via the arboricity argument of §6.1, and spanners admit
//     colorings with O(n^{1/k} log n) colors. It equals degeneracy + 1, the
//     color count of greedy coloring in smallest-last order, computed
//     exactly with a bucket queue in O(n + m).
//   - Maximum matching M̂C (MatchingSize): EO p-1-TR keeps a matching of
//     expected size >= (2/3) M̂C, since each triangle loses at most one edge
//     chosen uniformly among three (§6.1). Measured by greedy maximal
//     matching, a 1/2-approximation and the standard HPC choice.
//   - Maximum independent set ÎS (IndependentSetSize): EO p-1-TR bounds it
//     by ÎS + pT and spanners guarantee Ω(n^{1-1/k}/log n). Exact MIS is
//     NP-hard, so as in the paper's evaluation it is measured by greedy
//     maximal independent sets.
//   - Minimum cut (StoerWagner): a cut sparsifier keeps every cut within
//     1±ε (§4.6), and §6.3 claims spectral sparsification preserves the
//     minimum cut. The dense O(n^3) variant, for verification-scale graphs.
//   - MST weight (Kruskal): the TR variant that removes the maximum-weight
//     edge of every sampled triangle keeps it exactly (cycle property;
//     §4.3, §6.1).
package props

import (
	"sort"

	"slimgraph/internal/graph"
	"slimgraph/internal/unionfind"
)

// ColoringNumber returns the coloring number of g: degeneracy + 1, the
// minimum over vertex orderings of the greedy-coloring color count.
func ColoringNumber(g *graph.Graph) int {
	if g.N() == 0 {
		return 0
	}
	return degeneracy(g) + 1
}

// degeneracy repeatedly removes a vertex of minimum remaining degree; the
// largest degree seen at removal time is the degeneracy.
func degeneracy(g *graph.Graph) int {
	n := g.N()
	deg := make([]int32, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = int32(g.Degree(graph.NodeID(v)))
		if int(deg[v]) > maxDeg {
			maxDeg = int(deg[v])
		}
	}
	// Bucket queue over degrees with lazy position tracking.
	buckets := make([][]graph.NodeID, maxDeg+1)
	for v := 0; v < n; v++ {
		buckets[deg[v]] = append(buckets[deg[v]], graph.NodeID(v))
	}
	removed := make([]bool, n)
	d, cur := 0, 0
	for left := n; left > 0; {
		// Find the lowest non-empty bucket. deg decreases by at most 1 per
		// removal, so cur only needs to back up one step at a time.
		for cur < len(buckets) && len(buckets[cur]) == 0 {
			cur++
		}
		if cur >= len(buckets) {
			break
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || int(deg[v]) != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		left--
		if cur > d {
			d = cur
		}
		for _, w := range g.Neighbors(v) {
			if removed[w] {
				continue
			}
			deg[w]--
			buckets[deg[w]] = append(buckets[deg[w]], w)
			if int(deg[w]) < cur {
				cur = int(deg[w])
			}
		}
	}
	return d
}

// MatchingSize returns the size of a greedy maximal matching that scans
// canonical edges in ID order.
func MatchingSize(g *graph.Graph) int {
	size, _ := greedyMatching(g)
	return size
}

// greedyMatching returns the matching's size and its mate array (-1 for
// unmatched).
func greedyMatching(g *graph.Graph) (size int, mate []graph.NodeID) {
	mate = make([]graph.NodeID, g.N())
	for i := range mate {
		mate[i] = -1
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if mate[u] < 0 && mate[v] < 0 {
			mate[u], mate[v] = v, u
			size++
		}
	}
	return size, mate
}

// IndependentSetSize returns the larger of the ID-order and min-degree
// greedy maximal independent set sizes — the ÎS estimate.
func IndependentSetSize(g *graph.Graph) int {
	a := len(greedyIndependentSet(g, nil))
	if b := len(greedyIndependentSet(g, minDegreeOrder(g))); b > a {
		return b
	}
	return a
}

// greedyIndependentSet returns a maximal independent set built by scanning
// vertices in the given order (nil means ID order).
func greedyIndependentSet(g *graph.Graph, order []graph.NodeID) []graph.NodeID {
	n := g.N()
	blocked := make([]bool, n)
	var set []graph.NodeID
	take := func(v graph.NodeID) {
		if blocked[v] {
			return
		}
		set = append(set, v)
		blocked[v] = true
		for _, w := range g.Neighbors(v) {
			blocked[w] = true
		}
	}
	if order == nil {
		for v := 0; v < n; v++ {
			take(graph.NodeID(v))
		}
	} else {
		for _, v := range order {
			take(v)
		}
	}
	return set
}

// minDegreeOrder returns vertices by increasing degree, ties by ID — the
// classic independent-set heuristic that performs well on skewed graphs.
func minDegreeOrder(g *graph.Graph) []graph.NodeID {
	n := g.N()
	maxDeg := g.MaxDegree()
	buckets := make([][]graph.NodeID, maxDeg+1)
	for v := 0; v < n; v++ {
		d := g.Degree(graph.NodeID(v))
		buckets[d] = append(buckets[d], graph.NodeID(v))
	}
	order := make([]graph.NodeID, 0, n)
	for d := 0; d <= maxDeg; d++ {
		order = append(order, buckets[d]...)
	}
	return order
}

// StoerWagner returns the weight of a global minimum cut of g, treating
// unweighted edges as weight 1. The graph must be undirected, with at
// least 2 vertices; disconnected graphs have cut weight 0.
func StoerWagner(g *graph.Graph) float64 {
	if g.Directed() {
		panic("props: directed graphs are not supported")
	}
	n := g.N()
	if n < 2 {
		return 0
	}
	// Dense adjacency accumulating merged-vertex weights.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		wt := g.EdgeWeight(graph.EdgeID(e))
		w[u][v] += wt
		w[v][u] += wt
	}
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	best := -1.0
	// n-1 minimum-cut phases, merging the last two added vertices each time.
	for len(active) > 1 {
		cutOfPhase, s, t := minimumCutPhase(w, active)
		if best < 0 || cutOfPhase < best {
			best = cutOfPhase
		}
		// Merge t into s.
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		// Remove t from the active list.
		for i, v := range active {
			if v == t {
				active = append(active[:i], active[i+1:]...)
				break
			}
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// minimumCutPhase runs one maximum-adjacency search over the active
// vertices and returns the cut-of-the-phase plus the last two vertices
// added (s before t).
func minimumCutPhase(w [][]float64, active []int) (cut float64, s, t int) {
	added := make(map[int]bool, len(active))
	weights := make(map[int]float64, len(active))
	for _, v := range active {
		weights[v] = 0
	}
	prev := -1
	last := -1
	for range active {
		// Pick the most tightly connected unadded vertex.
		sel := -1
		for _, v := range active {
			if added[v] {
				continue
			}
			if sel < 0 || weights[v] > weights[sel] {
				sel = v
			}
		}
		added[sel] = true
		prev, last = last, sel
		cut = weights[sel]
		for _, v := range active {
			if !added[v] {
				weights[v] += w[sel][v]
			}
		}
	}
	return cut, prev, last
}

// Result holds a minimum spanning forest.
type Result struct {
	Edges  []graph.EdgeID // forest edges, one per merge
	Weight float64        // total weight of the forest
	Trees  int            // number of trees (== connected components)
}

// Kruskal computes a minimum spanning forest by sorting edges by weight
// (ties broken by EdgeID for determinism). It reads only the canonical edge
// list, so the forest — edges, weight sum, and tree count — is identical for
// every representation of the same graph.
func Kruskal(a graph.AdjacencyEdges) *Result {
	m := a.M()
	eu, ev, _ := graph.EdgeColumnsOf(a, 1)
	ew := make([]float64, m)
	a.ForEdges(func(e graph.EdgeID, _, _ graph.NodeID, w float64) { ew[e] = w })
	order := make([]graph.EdgeID, m)
	for e := range order {
		order[e] = graph.EdgeID(e)
	}
	sort.Slice(order, func(i, j int) bool {
		wi, wj := ew[order[i]], ew[order[j]]
		if wi != wj {
			return wi < wj
		}
		return order[i] < order[j]
	})
	uf := unionfind.New(a.N())
	res := &Result{}
	for _, e := range order {
		if uf.Union(eu[e], ev[e]) {
			res.Edges = append(res.Edges, e)
			res.Weight += ew[e]
		}
	}
	res.Trees = uf.Sets()
	return res
}
