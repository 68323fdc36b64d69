package components

import (
	"slimgraph/internal/unionfind"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

func TestCountSimple(t *testing.T) {
	g := graph.FromEdges(7, false, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(3, 4),
	})
	// Components: {0,1,2}, {3,4}, {5}, {6}
	if got := Count(g); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
}

func TestLabelsDeterministicMinID(t *testing.T) {
	g := graph.FromEdges(5, false, []graph.Edge{graph.E(3, 4), graph.E(1, 2)})
	l := Labels(g)
	if l[3] != 3 || l[4] != 3 || l[1] != 1 || l[2] != 1 || l[0] != 0 {
		t.Fatalf("labels %v", l)
	}
}

func TestThreeImplementationsAgreeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 80
		m := r.Intn(150)
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.E(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)))
		}
		g := graph.FromEdges(n, false, edges)
		a := Labels(g)
		b := LabelsUnionFind(g)
		c := LabelsPropagation(g, 4)
		return SameComponents(a, b) && SameComponents(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedGraphOneComponent(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Path(100), gen.Cycle(64), gen.Complete(10), gen.Grid2D(8, 9, false),
	} {
		if Count(g) != 1 {
			t.Fatalf("%v: Count = %d, want 1", g, Count(g))
		}
	}
}

func TestEdgelessGraph(t *testing.T) {
	g := graph.FromEdges(10, false, nil)
	if Count(g) != 10 {
		t.Fatalf("Count = %d, want 10", Count(g))
	}
}

func TestSizesAndLargest(t *testing.T) {
	g := graph.FromEdges(6, false, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(3, 4),
	})
	l := Labels(g)
	sizes := Sizes(l)
	if sizes[0] != 3 || sizes[3] != 2 || sizes[5] != 1 {
		t.Fatalf("sizes %v", sizes)
	}
	if Largest(l) != 3 {
		t.Fatalf("Largest = %d", Largest(l))
	}
}

func TestSameComponentsDetectsDifference(t *testing.T) {
	a := []graph.NodeID{0, 0, 2}
	b := []graph.NodeID{5, 5, 7}
	if !SameComponents(a, b) {
		t.Fatal("isomorphic labelings reported different")
	}
	c := []graph.NodeID{0, 1, 1}
	if SameComponents(a, c) {
		t.Fatal("different partitions reported same")
	}
	if SameComponents(a, []graph.NodeID{0}) {
		t.Fatal("length mismatch reported same")
	}
}

func BenchmarkLabelsRMAT14(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Labels(g)
	}
}

func BenchmarkLabelPropagationRMAT14(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LabelsPropagation(g, 0)
	}
}

// LabelsUnionFind computes component labels with a union-find pass over the
// canonical edge list.
func LabelsUnionFind(g *graph.Graph) []graph.NodeID {
	uf := unionfind.New(g.N())
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		uf.Union(u, v)
	}
	return uf.Labels()
}
