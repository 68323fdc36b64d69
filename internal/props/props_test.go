package props

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/unionfind"
)

// Reference oracles: straight-line checkers the kept kernels are held to.

// greedyColoring colors vertices in the given order, assigning each the
// smallest color unused by its already-colored neighbors. It returns the
// colors and the number of colors used.
func greedyColoring(g *graph.Graph, order []graph.NodeID) (colors []int32, used int) {
	n := g.N()
	colors = make([]int32, n)
	for i := range colors {
		colors[i] = -1
	}
	mark := make([]int32, n+1) // mark[c] == vi+1 when color c is blocked for the vi-th vertex
	maxColor := int32(-1)
	for vi, v := range order {
		stamp := int32(vi + 1)
		for _, w := range g.Neighbors(v) {
			if c := colors[w]; c >= 0 {
				mark[c] = stamp
			}
		}
		c := int32(0)
		for mark[c] == stamp {
			c++
		}
		colors[v] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return colors, int(maxColor + 1)
}

// validColoring reports whether colors is a proper coloring of g.
func validColoring(g *graph.Graph, colors []int32) bool {
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if colors[u] == colors[v] {
			return false
		}
	}
	return true
}

// smallestLast is the quadratic reference for the degeneracy: it removes a
// minimum-degree vertex (lowest ID on ties) n times and returns the reverse
// removal order (the smallest-last coloring order) and the largest degree
// seen at removal.
func smallestLast(g *graph.Graph) (order []graph.NodeID, degeneracy int) {
	n := g.N()
	deg := make([]int, n)
	for v := range deg {
		deg[v] = g.Degree(graph.NodeID(v))
	}
	removed := make([]bool, n)
	order = make([]graph.NodeID, n)
	for i := n - 1; i >= 0; i-- {
		v := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (v < 0 || deg[u] < deg[v]) {
				v = u
			}
		}
		removed[v] = true
		order[i] = graph.NodeID(v)
		degeneracy = max(degeneracy, deg[v])
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			deg[w]--
		}
	}
	return order, degeneracy
}

// validMatching reports whether mate is a consistent matching in g:
// symmetric, over existing edges, no vertex matched twice.
func validMatching(g *graph.Graph, mate []graph.NodeID) bool {
	for u := graph.NodeID(0); int(u) < g.N(); u++ {
		v := mate[u]
		if v < 0 {
			continue
		}
		if mate[v] != u || !g.HasEdge(u, v) {
			return false
		}
	}
	return true
}

// maximalMatching reports whether no edge has both endpoints unmatched.
func maximalMatching(g *graph.Graph, mate []graph.NodeID) bool {
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if mate[u] < 0 && mate[v] < 0 {
			return false
		}
	}
	return true
}

// independentAndMaximal reports whether no two members of set are adjacent
// and every vertex outside set has a neighbor inside.
func independentAndMaximal(g *graph.Graph, set []graph.NodeID) bool {
	in := make([]bool, g.N())
	for _, v := range set {
		in[v] = true
	}
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		dominated := in[v]
		for _, w := range g.Neighbors(v) {
			if in[v] && in[w] {
				return false
			}
			dominated = dominated || in[w]
		}
		if !dominated {
			return false
		}
	}
	return true
}

// Coloring number.

func TestGreedyProducesValidColoring(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Complete(6), gen.Cycle(7), gen.Path(10),
		gen.RMAT(8, 8, 0.57, 0.19, 0.19, 3),
	} {
		order, _ := smallestLast(g)
		colors, used := greedyColoring(g, order)
		if !validColoring(g, colors) {
			t.Fatalf("%v: invalid coloring", g)
		}
		if used > ColoringNumber(g) {
			t.Fatalf("%v: smallest-last greedy used %d colors > coloring number %d", g, used, ColoringNumber(g))
		}
	}
}

func TestCompleteGraphNeedsNColors(t *testing.T) {
	g := gen.Complete(7)
	order, _ := smallestLast(g)
	if _, used := greedyColoring(g, order); used != 7 {
		t.Fatalf("K7 used %d colors", used)
	}
	if ColoringNumber(g) != 7 {
		t.Fatalf("K7 coloring number %d", ColoringNumber(g))
	}
}

func TestCycleColoring(t *testing.T) {
	even := gen.Cycle(8)
	if ColoringNumber(even) != 3 { // degeneracy of a cycle is 2
		t.Fatalf("C8 coloring number %d, want 3", ColoringNumber(even))
	}
	order, _ := smallestLast(even)
	colors, used := greedyColoring(even, order)
	if !validColoring(even, colors) || used > 3 {
		t.Fatalf("C8 greedy used %d", used)
	}
}

func TestDegeneracyKnownValues(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path", gen.Path(10), 1},
		{"cycle", gen.Cycle(10), 2},
		{"K5", gen.Complete(5), 4},
		{"star", gen.Star(20), 1},
		{"tree-ish grid", gen.Grid2D(4, 4, false), 2},
	}
	for _, c := range cases {
		if d := ColoringNumber(c.g) - 1; d != c.want {
			t.Errorf("%s: degeneracy %d, want %d", c.name, d, c.want)
		}
	}
}

func TestDegeneracyOrderIsPermutation(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5)
	order, _ := smallestLast(g)
	seen := make([]bool, g.N())
	for _, v := range order {
		if seen[v] {
			t.Fatalf("vertex %d repeated", v)
		}
		seen[v] = true
	}
	for v, s := range seen {
		if !s {
			t.Fatalf("vertex %d missing", v)
		}
	}
}

func TestSmallestLastBeatsOrEqualsNatural(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 7)
	natural := make([]graph.NodeID, g.N())
	for i := range natural {
		natural[i] = graph.NodeID(i)
	}
	_, nat := greedyColoring(g, natural)
	order, _ := smallestLast(g)
	colors, smallest := greedyColoring(g, order)
	if !validColoring(g, colors) {
		t.Fatal("invalid smallest-last coloring")
	}
	if smallest > ColoringNumber(g) {
		t.Fatalf("smallest-last used %d > coloring number %d", smallest, ColoringNumber(g))
	}
	if smallest > nat+2 {
		t.Fatalf("smallest-last %d much worse than natural %d", smallest, nat)
	}
}

func TestGreedyAnyOrderValidProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.ErdosRenyi(50, 150, seed)
		order := make([]graph.NodeID, g.N())
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		colors, used := greedyColoring(g, order)
		return validColoring(g, colors) && used <= g.MaxDegree()+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestColoringNumberMatchesReferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.ErdosRenyi(50, 150, seed)
		order, d := smallestLast(g)
		colors, used := greedyColoring(g, order)
		return ColoringNumber(g) == d+1 && validColoring(g, colors) && used <= d+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Matching.

func TestMatchingPath(t *testing.T) {
	// Path 0-1-2-3: greedy in edge order picks (0,1) and (2,3).
	g := gen.Path(4)
	size, mate := greedyMatching(g)
	if size != 2 {
		t.Fatalf("matched %d edges, want 2", size)
	}
	if !validMatching(g, mate) || !maximalMatching(g, mate) {
		t.Fatal("invalid or non-maximal matching")
	}
}

func TestMatchingStar(t *testing.T) {
	// A star has maximum matching size 1.
	if got := MatchingSize(gen.Star(10)); got != 1 {
		t.Fatalf("star matching size %d, want 1", got)
	}
}

func TestMatchingComplete(t *testing.T) {
	if got := MatchingSize(gen.Complete(8)); got != 4 {
		t.Fatalf("K8 matching size %d, want 4", got)
	}
	if got := MatchingSize(gen.Complete(7)); got != 3 {
		t.Fatalf("K7 matching size %d, want 3", got)
	}
}

func TestMatchingValidAndMaximalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.ErdosRenyi(60, 150, seed)
		size, mate := greedyMatching(g)
		matched := 0
		for _, m := range mate {
			if m >= 0 {
				matched++
			}
		}
		return validMatching(g, mate) && maximalMatching(g, mate) && matched == 2*size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Independent set.

func TestIndependentSetStar(t *testing.T) {
	// Greedy in ID order takes the hub (vertex 0) -> size 1. Min-degree
	// greedy takes the leaves -> size n-1.
	g := gen.Star(10)
	if got := len(greedyIndependentSet(g, nil)); got != 1 {
		t.Fatalf("ID-order greedy size %d, want 1", got)
	}
	if got := len(greedyIndependentSet(g, minDegreeOrder(g))); got != 9 {
		t.Fatalf("min-degree greedy size %d, want 9", got)
	}
	if got := IndependentSetSize(g); got != 9 {
		t.Fatalf("IndependentSetSize %d, want 9", got)
	}
}

func TestIndependentSetComplete(t *testing.T) {
	if got := IndependentSetSize(gen.Complete(7)); got != 1 {
		t.Fatalf("K7 independent set size %d, want 1", got)
	}
}

func TestIndependentSetPathAlternates(t *testing.T) {
	g := gen.Path(7)
	set := greedyIndependentSet(g, nil)
	if len(set) != 4 { // 0, 2, 4, 6
		t.Fatalf("P7 set size %d, want 4", len(set))
	}
	if !independentAndMaximal(g, set) {
		t.Fatal("invalid or non-maximal")
	}
}

func TestIndependentSetEdgelessTakesAll(t *testing.T) {
	if got := IndependentSetSize(graph.FromEdges(12, false, nil)); got != 12 {
		t.Fatalf("edgeless independent set size %d, want 12", got)
	}
}

func TestIndependentSetValidMaximalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.ErdosRenyi(60, 180, seed)
		return independentAndMaximal(g, greedyIndependentSet(g, nil)) &&
			independentAndMaximal(g, greedyIndependentSet(g, minDegreeOrder(g)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Minimum cut.

func TestSingleEdge(t *testing.T) {
	g := graph.FromEdges(2, false, []graph.Edge{graph.E(0, 1)})
	if c := StoerWagner(g); c != 1 {
		t.Fatalf("cut = %v, want 1", c)
	}
}

func TestPathCutIsOne(t *testing.T) {
	if c := StoerWagner(gen.Path(10)); c != 1 {
		t.Fatalf("path cut = %v, want 1", c)
	}
}

func TestCycleCutIsTwo(t *testing.T) {
	if c := StoerWagner(gen.Cycle(8)); c != 2 {
		t.Fatalf("cycle cut = %v, want 2", c)
	}
}

func TestCompleteGraphCut(t *testing.T) {
	// K_n: min cut isolates one vertex, weight n-1.
	for _, n := range []int{3, 5, 8} {
		if c := StoerWagner(gen.Complete(n)); c != float64(n-1) {
			t.Fatalf("K%d cut = %v, want %d", n, c, n-1)
		}
	}
}

func TestDisconnectedIsZero(t *testing.T) {
	g := graph.FromEdges(4, false, []graph.Edge{graph.E(0, 1), graph.E(2, 3)})
	if c := StoerWagner(g); c != 0 {
		t.Fatalf("disconnected cut = %v, want 0", c)
	}
}

func TestBottleneckGraph(t *testing.T) {
	// Two K6 cliques joined by exactly 3 bridge edges: min cut = 3.
	edges := []graph.Edge{}
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			edges = append(edges, graph.E(graph.NodeID(u), graph.NodeID(v)))
			edges = append(edges, graph.E(graph.NodeID(u+6), graph.NodeID(v+6)))
		}
	}
	edges = append(edges, graph.E(0, 6), graph.E(1, 7), graph.E(2, 8))
	g := graph.FromEdges(12, false, edges)
	if c := StoerWagner(g); c != 3 {
		t.Fatalf("bottleneck cut = %v, want 3", c)
	}
}

func TestWeightedCut(t *testing.T) {
	// Triangle with one light edge pair: min cut isolates the vertex with
	// the smallest incident weight sum.
	g := graph.FromWeightedEdges(3, false, []graph.Edge{
		graph.WE(0, 1, 10), graph.WE(1, 2, 1), graph.WE(0, 2, 1),
	})
	if c := StoerWagner(g); c != 2 {
		t.Fatalf("weighted cut = %v, want 2 (isolate vertex 2)", c)
	}
}

// Property: the min cut never exceeds the minimum weighted degree (that cut
// always exists).
func TestCutBoundedByMinDegreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20
		edges := make([]graph.Edge, 50)
		for i := range edges {
			edges[i] = graph.E(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
		g := graph.FromEdges(n, false, edges)
		cut := StoerWagner(g)
		minDeg := math.Inf(1)
		for v := 0; v < n; v++ {
			minDeg = math.Min(minDeg, float64(g.Degree(graph.NodeID(v))))
		}
		return cut <= minDeg+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Minimum spanning forest.

func TestKruskalKnown(t *testing.T) {
	// Classic 4-vertex example.
	g := graph.FromWeightedEdges(4, false, []graph.Edge{
		graph.WE(0, 1, 1), graph.WE(1, 2, 2), graph.WE(2, 3, 3),
		graph.WE(0, 3, 4), graph.WE(0, 2, 5),
	})
	res := Kruskal(g)
	if res.Weight != 6 { // 1 + 2 + 3
		t.Fatalf("weight = %v, want 6", res.Weight)
	}
	if len(res.Edges) != 3 || res.Trees != 1 {
		t.Fatalf("edges=%d trees=%d", len(res.Edges), res.Trees)
	}
}

func TestForestOnDisconnected(t *testing.T) {
	g := graph.FromWeightedEdges(5, false, []graph.Edge{
		graph.WE(0, 1, 1), graph.WE(2, 3, 2),
	})
	res := Kruskal(g)
	if res.Weight != 3 || res.Trees != 3 { // {0,1}, {2,3}, {4}
		t.Fatalf("weight=%v trees=%d", res.Weight, res.Trees)
	}
}

func TestUnweightedSpanningTree(t *testing.T) {
	g := gen.Grid2D(5, 5, true)
	res := Kruskal(g)
	if len(res.Edges) != g.N()-1 {
		t.Fatalf("spanning tree edges = %d, want %d", len(res.Edges), g.N()-1)
	}
	if res.Weight != float64(g.N()-1) {
		t.Fatalf("weight = %v", res.Weight)
	}
}

func TestBoruvkaMatchesKruskalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.WithUniformWeights(gen.ErdosRenyi(60, 200, seed), 1, 100, seed+1)
		k := Kruskal(g)
		b := boruvka(g)
		return math.Abs(k.Weight-b.Weight) < 1e-9 &&
			k.Trees == b.Trees && len(k.Edges) == len(b.Edges)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTEdgesFormAcyclicSpanningStructure(t *testing.T) {
	g := gen.WithUniformWeights(gen.RMAT(8, 8, 0.57, 0.19, 0.19, 3), 1, 50, 4)
	res := Kruskal(g)
	// A forest with k trees over n vertices has n-k edges.
	if len(res.Edges) != g.N()-res.Trees {
		t.Fatalf("edges=%d n=%d trees=%d", len(res.Edges), g.N(), res.Trees)
	}
	// Rebuilding from only forest edges keeps the same component count.
	keep := make(map[graph.EdgeID]bool, len(res.Edges))
	for _, e := range res.Edges {
		keep[e] = true
	}
	kept := graph.NewEdgeSet(g.M())
	kept.AddBatch(0, func(e graph.EdgeID) bool { return keep[e] })
	forest := g.FilterEdgeSet(kept, nil)
	if forest.M() != len(res.Edges) {
		t.Fatalf("forest m=%d, want %d", forest.M(), len(res.Edges))
	}
}

func TestCyclePropertyMaxWeightEdgeExcluded(t *testing.T) {
	// In a triangle, the strictly heaviest edge never appears in the MST —
	// the invariant behind the MST-preserving TR variant.
	g := graph.FromWeightedEdges(3, false, []graph.Edge{
		graph.WE(0, 1, 1), graph.WE(1, 2, 2), graph.WE(0, 2, 10),
	})
	res := Kruskal(g)
	heavy, _ := g.FindEdge(0, 2)
	for _, e := range res.Edges {
		if e == heavy {
			t.Fatal("max-weight triangle edge in MST")
		}
	}
	if res.Weight != 3 {
		t.Fatalf("weight = %v", res.Weight)
	}
}

// boruvka computes a minimum spanning forest with Borůvka rounds: each
// component repeatedly selects its lightest outgoing edge. Ties are broken
// by EdgeID, which guarantees termination and a forest identical in weight
// to Kruskal's.
func boruvka(g *graph.Graph) *Result {
	uf := unionfind.New(g.N())
	res := &Result{}
	lighter := func(a, b graph.EdgeID) bool {
		wa, wb := g.EdgeWeight(a), g.EdgeWeight(b)
		return wa < wb || (wa == wb && a < b)
	}
	for {
		// best[c] = lightest outgoing edge of component c.
		best := make(map[graph.NodeID]graph.EdgeID)
		for e := 0; e < g.M(); e++ {
			id := graph.EdgeID(e)
			u, v := g.EdgeEndpoints(id)
			cu, cv := graph.NodeID(uf.Find(u)), graph.NodeID(uf.Find(v))
			if cu == cv {
				continue
			}
			for _, c := range [2]graph.NodeID{cu, cv} {
				if cur, ok := best[c]; !ok || lighter(id, cur) {
					best[c] = id
				}
			}
		}
		if len(best) == 0 {
			break
		}
		// Deterministic merge order: by component label.
		comps := make([]graph.NodeID, 0, len(best))
		for c := range best {
			comps = append(comps, c)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
		merged := false
		for _, c := range comps {
			e := best[c]
			u, v := g.EdgeEndpoints(e)
			if uf.Union(u, v) {
				res.Edges = append(res.Edges, e)
				res.Weight += g.EdgeWeight(e)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	res.Trees = uf.Sets()
	return res
}
