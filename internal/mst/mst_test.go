package mst

import (
	"math"
	"slimgraph/internal/unionfind"
	"sort"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

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
		b := Boruvka(g)
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
	forest := g.FilterEdges(func(e graph.EdgeID) bool { return keep[e] }, nil)
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

func BenchmarkKruskalRMAT13(b *testing.B) {
	g := gen.WithUniformWeights(gen.RMAT(13, 8, 0.57, 0.19, 0.19, 1), 1, 100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(g)
	}
}

// Boruvka computes a minimum spanning forest with Borůvka rounds: each
// component repeatedly selects its lightest outgoing edge. Ties are broken
// by EdgeID, which guarantees termination and a forest identical in weight
// to Kruskal's.
func Boruvka(g *graph.Graph) *Result {
	n := g.N()
	uf := unionfind.New(n)
	res := &Result{}
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
				cur, ok := best[c]
				if !ok || less(g, id, cur) {
					best[c] = id
				}
			}
		}
		if len(best) == 0 {
			break
		}
		merged := false
		// Deterministic merge order: by component label.
		comps := make([]graph.NodeID, 0, len(best))
		for c := range best {
			comps = append(comps, c)
		}
		sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
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

func less(g *graph.Graph, a, b graph.EdgeID) bool {
	wa, wb := g.EdgeWeight(a), g.EdgeWeight(b)
	if wa != wb {
		return wa < wb
	}
	return a < b
}
