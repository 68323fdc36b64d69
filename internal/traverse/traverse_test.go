package traverse

import (
	"math"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

func TestBFSPath(t *testing.T) {
	g := gen.Path(10)
	res := BFS(g, 0, 1)
	for v := 0; v < 10; v++ {
		if res.Dist[v] != int32(v) {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], v)
		}
	}
	if res.Parent[0] != 0 {
		t.Fatalf("root parent %d", res.Parent[0])
	}
	for v := 1; v < 10; v++ {
		if res.Parent[v] != graph.NodeID(v-1) {
			t.Fatalf("parent[%d] = %d", v, res.Parent[v])
		}
	}
	if res.Reached() != 10 || res.Ecc() != 9 {
		t.Fatalf("reached=%d ecc=%d", res.Reached(), res.Ecc())
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := graph.FromEdges(5, false, []graph.Edge{graph.E(0, 1), graph.E(2, 3)})
	res := BFS(g, 0, 1)
	if res.Dist[2] != -1 || res.Parent[2] != -1 {
		t.Fatal("unreachable vertex has distance")
	}
	if res.Reached() != 2 {
		t.Fatalf("reached = %d", res.Reached())
	}
}

func TestBFSParentEdgesExist(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	res := BFS(g, 0, 4)
	for v := range res.Parent {
		p := res.Parent[v]
		if p < 0 || p == graph.NodeID(v) {
			continue
		}
		if !g.HasEdge(p, graph.NodeID(v)) {
			t.Fatalf("parent edge (%d, %d) not in graph", p, v)
		}
		if res.Dist[v] != res.Dist[p]+1 {
			t.Fatalf("dist[%d]=%d but dist[parent]=%d", v, res.Dist[v], res.Dist[p])
		}
	}
}

func TestBFSParallelMatchesSequentialDistances(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 7)
	seq := BFS(g, 0, 1)
	par := BFS(g, 0, 8)
	for v := range seq.Dist {
		if seq.Dist[v] != par.Dist[v] {
			t.Fatalf("dist[%d]: seq %d par %d", v, seq.Dist[v], par.Dist[v])
		}
	}
}

func TestDijkstraUnweightedMatchesBFS(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 5)
	bfs := BFS(g, 0, 1)
	dist, parent := Dijkstra(g, 0)
	for v := range dist {
		if bfs.Dist[v] < 0 {
			if !math.IsInf(dist[v], 1) {
				t.Fatalf("vertex %d: BFS unreachable, Dijkstra %v", v, dist[v])
			}
			continue
		}
		if dist[v] != float64(bfs.Dist[v]) {
			t.Fatalf("vertex %d: Dijkstra %v, BFS %d", v, dist[v], bfs.Dist[v])
		}
	}
	if parent[0] != 0 {
		t.Fatal("root parent wrong")
	}
}

func TestDijkstraWeightedSmall(t *testing.T) {
	// 0 -1- 1 -1- 2, plus a direct heavy edge 0-2.
	g := graph.FromWeightedEdges(3, false, []graph.Edge{
		graph.WE(0, 1, 1), graph.WE(1, 2, 1), graph.WE(0, 2, 5),
	})
	dist, _ := Dijkstra(g, 0)
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %v, want 2 (via vertex 1)", dist[2])
	}
}

func TestDeltaSteppingMatchesDijkstraProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.WithUniformWeights(gen.ErdosRenyi(150, 600, seed), 1, 10, seed+1)
		want, _ := Dijkstra(g, 0)
		for _, workers := range []int{1, 4} {
			got := DeltaStepping(g, 0, 0, workers)
			for v := range want {
				if math.IsInf(want[v], 1) != math.IsInf(got[v], 1) {
					return false
				}
				if !math.IsInf(want[v], 1) && math.Abs(want[v]-got[v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaSteppingExplicitDelta(t *testing.T) {
	g := gen.WithUniformWeights(gen.Grid2D(10, 10, true), 1, 4, 9)
	want, _ := Dijkstra(g, 0)
	for _, delta := range []float64{0.5, 2, 100} {
		got := DeltaStepping(g, 0, delta, 2)
		for v := range want {
			if math.Abs(want[v]-got[v]) > 1e-9 {
				t.Fatalf("delta=%v vertex %d: %v vs %v", delta, v, got[v], want[v])
			}
		}
	}
}

func TestDoubleSweepDiameterPath(t *testing.T) {
	g := gen.Path(50)
	if d := DoubleSweepDiameter(g, 25, 1); d != 49 {
		t.Fatalf("path diameter = %d, want 49", d)
	}
	c := gen.Cycle(10)
	if d := DoubleSweepDiameter(c, 0, 1); d != 5 {
		t.Fatalf("cycle diameter = %d, want 5", d)
	}
}

func TestAveragePathLength(t *testing.T) {
	g := gen.Complete(10)
	apl := AveragePathLength(g, []graph.NodeID{0, 1, 2}, 1)
	if apl != 1 {
		t.Fatalf("complete graph APL = %v, want 1", apl)
	}
	p := gen.Path(3) // from 0: dists 1, 2 -> mean 1.5
	if apl := AveragePathLength(p, []graph.NodeID{0}, 1); apl != 1.5 {
		t.Fatalf("path APL = %v, want 1.5", apl)
	}
}

func TestBFSRandomizedDistancesTriangleInequality(t *testing.T) {
	// Property: for any edge (u, v), |dist[u] - dist[v]| <= 1.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.ErdosRenyi(100, 300, seed)
		root := graph.NodeID(r.Intn(100))
		res := BFS(g, root, 4)
		for e := 0; e < g.M(); e++ {
			u, v := g.EdgeEndpoints(graph.EdgeID(e))
			du, dv := res.Dist[u], res.Dist[v]
			if (du < 0) != (dv < 0) {
				return false // one endpoint reachable, the other not
			}
			if du >= 0 && (du-dv > 1 || dv-du > 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBFSRMAT14(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	for _, rep := range []struct {
		name string
		a    graph.Adjacency
	}{{"raw", g}, {"packed", succinct.Pack(g, 0)}} {
		b.Run(rep.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BFS(rep.a, 0, 1)
			}
		})
	}
}

func BenchmarkDeltaSteppingGrid(b *testing.B) {
	g := gen.WithUniformWeights(gen.Grid2D(200, 200, true), 1, 8, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DeltaStepping(g, 0, 0, 0)
	}
}

func TestBFSScratchReusedAcrossLevels(t *testing.T) {
	// A long path maximizes level count (one frontier vertex per level, so
	// every level runs inline regardless of the worker setting). Before the
	// per-traversal scratch, BFS allocated fresh per-worker next-frontier
	// slices every level: >= 2 allocations x 2047 levels here. With reuse,
	// the whole traversal stays within a small constant budget.
	g := gen.Path(2048)
	const budget = 64
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() { BFS(g, 0, workers) })
		if allocs > budget {
			t.Errorf("BFS workers=%d: %.0f allocs per traversal, budget %d (per-level scratch leak?)",
				workers, allocs, budget)
		}
	}
}
