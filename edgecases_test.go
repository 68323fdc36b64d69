package slimgraph_test

import (
	"testing"

	"slimgraph"
)

// Degenerate inputs must flow through every scheme and algorithm without
// panics and with sensible results — compression pipelines meet empty
// partitions and isolated remnants all the time.

func edgeless(n int) *slimgraph.Graph { return slimgraph.FromEdges(n, false, nil) }

func TestSchemesOnEdgelessGraph(t *testing.T) {
	g := edgeless(50)
	if res := compress(t, g, "uniform:p=0.5,workers=2", 1); res.Output.M() != 0 || res.Output.N() != 50 {
		t.Fatal("uniform broke an edgeless graph")
	}
	if res := compress(t, g, "tr-eo:p=1", 1); res.Output.M() != 0 {
		t.Fatal("TR broke an edgeless graph")
	}
	if res := compress(t, g, "spanner:k=4", 1); res.Output.N() != 50 {
		t.Fatal("spanner broke an edgeless graph")
	}
	if res := compress(t, g, "lowdeg:workers=2", 0); res.Output.N() != 50 {
		t.Fatal("lowdeg broke an edgeless graph")
	}
	if res := compress(t, g, "cut:workers=2", 1); res.Output.M() != 0 {
		t.Fatal("cut sparsifier broke an edgeless graph")
	}
	s := slimgraph.Summarize(g, slimgraph.SummarizeOptions{Iterations: 3, Seed: 1})
	if s.Decode().M() != 0 {
		t.Fatal("summary of edgeless graph decodes edges")
	}
}

func TestSchemesOnSingleEdge(t *testing.T) {
	g := slimgraph.FromEdges(2, false, []slimgraph.Edge{slimgraph.E(0, 1)})
	if res := compress(t, g, "uniform:p=1,workers=1", 1); res.Output.M() != 1 {
		t.Fatal("keep-all dropped the only edge")
	}
	if res := compress(t, g, "tr:p=1", 1); res.Output.M() != 1 {
		t.Fatal("TR removed a non-triangle edge")
	}
	if res := compress(t, g, "spanner:k=2", 1); res.Output.M() != 1 {
		t.Fatal("spanner dropped a forest edge")
	}
}

func TestAlgorithmsOnTinyGraphs(t *testing.T) {
	single := edgeless(1)
	if res := slimgraph.BFS(single, 0, 1); res.Reached() != 1 || res.Ecc() != 0 {
		t.Fatal("BFS on K1")
	}
	if pr := slimgraph.PageRank(single, 1); len(pr) != 1 || pr[0] != 1 {
		t.Fatalf("PageRank on K1: %v", pr)
	}
	if c := slimgraph.TriangleCount(single, 1); c != 0 {
		t.Fatal("triangles on K1")
	}
	if slimgraph.ComponentCount(single) != 1 {
		t.Fatal("components on K1")
	}
	if slimgraph.MatchingSize(single) != 0 || slimgraph.IndependentSetSize(single) != 1 {
		t.Fatal("matching/MIS on K1")
	}
	if slimgraph.ColoringNumber(single) != 1 {
		t.Fatal("coloring on K1")
	}
	if slimgraph.MSTWeight(single) != 0 {
		t.Fatal("MST on K1")
	}
	if slimgraph.MinCut(single) != 0 {
		t.Fatal("min cut on K1")
	}
}

func TestMetricsDegenerate(t *testing.T) {
	if d := slimgraph.KLDivergence(nil, nil); d != 0 {
		t.Fatalf("KL of empty: %v", d)
	}
	if f := slimgraph.ReorderedPairs([]float64{1}, []float64{2}); f != 0 {
		t.Fatalf("single-element reordering: %v", f)
	}
	g := edgeless(3)
	if f := slimgraph.ReorderedNeighborPairs(g, []float64{1, 2, 3}, []float64{3, 2, 1}); f != 0 {
		t.Fatalf("neighbor pairs with no edges: %v", f)
	}
	dd := slimgraph.DegreeDistribution(g)
	if len(dd) != 1 || dd[0] != 1 {
		t.Fatalf("degree distribution of edgeless: %v", dd)
	}
}

func TestSummarizeStarAndClique(t *testing.T) {
	// Star: all leaves share the neighborhood {hub} — heavy merging.
	star := slimgraph.FromEdges(21, false, starEdges(21))
	s := slimgraph.Summarize(star, slimgraph.SummarizeOptions{Iterations: 6, Seed: 2})
	if s.Supervertices >= 21 {
		t.Fatalf("star summarization merged nothing: %d supervertices", s.Supervertices)
	}
	if dec := s.Decode(); dec.M() != star.M() {
		t.Fatalf("lossless star decode: %d vs %d", dec.M(), star.M())
	}
}

func starEdges(n int) []slimgraph.Edge {
	edges := make([]slimgraph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, slimgraph.E(0, slimgraph.NodeID(v)))
	}
	return edges
}

func TestCompressionOfCompressed(t *testing.T) {
	// Stacking schemes (a realistic pipeline) must compose cleanly.
	g := slimgraph.GenerateCommunities(2000, 20, 0.5, 3000, 9)
	step1 := compress(t, g, "tr-eo:p=0.5", 1)
	step2 := compress(t, step1.Output, "spectral:p=2,variant=logn", 2)
	step3 := compress(t, step2.Output, "spanner:k=4", 3)
	if step3.Output.M() >= g.M() {
		t.Fatal("stacked pipeline did not compress")
	}
	if step3.Output.N() != g.N() {
		t.Fatal("stacked pipeline changed the vertex set")
	}
	// Still a valid graph end to end.
	if err := step3.Output.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedGraphPipeline(t *testing.T) {
	// Directed hyperlink-style graphs: PageRank respects direction; edge
	// schemes operate on the canonical (directed) edge list.
	d := slimgraph.FromEdges(4, true, []slimgraph.Edge{
		slimgraph.E(0, 1), slimgraph.E(1, 2), slimgraph.E(2, 3), slimgraph.E(3, 0),
		slimgraph.E(0, 2),
	})
	pr := slimgraph.PageRank(d, 1)
	sum := 0.0
	for _, r := range pr {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("directed PageRank sums to %v", sum)
	}
	res := compress(t, d, "uniform:p=0.6,workers=1", 1)
	if !res.Output.Directed() {
		t.Fatal("uniform sampling lost directedness")
	}
}
