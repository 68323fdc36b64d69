package schemes

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"slimgraph/internal/components"
	"slimgraph/internal/core"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/props"
	"slimgraph/internal/rng"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

func TestUniformExtremes(t *testing.T) {
	g := gen.ErdosRenyi(200, 1000, 1)
	if got := applySpec(t, g, "uniform:p=1", 1, 2); got.Output.M() != g.M() {
		t.Fatalf("p=1 removed edges: %d -> %d", g.M(), got.Output.M())
	}
	if got := applySpec(t, g, "uniform:p=0", 1, 2); got.Output.M() != 0 {
		t.Fatalf("p=0 kept %d edges", got.Output.M())
	}
}

func TestUniformRatioNearP(t *testing.T) {
	g := gen.ErdosRenyi(1000, 10000, 2)
	for _, p := range []float64{0.2, 0.5, 0.8} {
		res := applySpec(t, g, fmt.Sprintf("uniform:p=%g", p), 42, 4)
		if math.Abs(res.CompressionRatio()-p) > 0.05 {
			t.Fatalf("p=%v: ratio %v", p, res.CompressionRatio())
		}
		if res.EdgeReduction() < 0 || res.Elapsed <= 0 {
			t.Fatal("bookkeeping broken")
		}
	}
}

func TestUniformDeterministicPerSeed(t *testing.T) {
	g := gen.ErdosRenyi(300, 2000, 3)
	a := applySpec(t, g, "uniform:p=0.5", 7, 1)
	b := applySpec(t, g, "uniform:p=0.5", 7, 8)
	if a.Output.M() != b.Output.M() {
		t.Fatalf("worker count changed result: %d vs %d", a.Output.M(), b.Output.M())
	}
}

func TestSpectralKeepsVertexCoverage(t *testing.T) {
	// §4.2.1: probabilities are chosen so every vertex keeps edges attached
	// w.h.p. With Υ = ln n, low-degree vertices keep all their edges
	// (p_e = 1 when min degree <= Υ).
	g := gen.BarabasiAlbert(2000, 3, 5)
	res := applySpec(t, g, "spectral:p=1,variant=logn", 1, 4)
	isolatedBefore := 0
	isolatedAfter := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(graph.NodeID(v)) == 0 {
			isolatedBefore++
		}
		if res.Output.Degree(graph.NodeID(v)) == 0 {
			isolatedAfter++
		}
	}
	if isolatedAfter > isolatedBefore {
		t.Fatalf("spectral sparsification isolated %d vertices", isolatedAfter-isolatedBefore)
	}
}

func TestSpectralReweighting(t *testing.T) {
	g := gen.RMAT(10, 16, 0.57, 0.19, 0.19, 3)
	res := applySpec(t, g, "spectral:p=0.5,variant=logn,reweight=true", 2, 2)
	if !res.Output.Weighted() {
		t.Fatal("reweighted output not weighted")
	}
	// Kept high-degree-endpoint edges must have weight > 1 (1/p_e).
	anyAbove := false
	for e := 0; e < res.Output.M(); e++ {
		w := res.Output.EdgeWeight(graph.EdgeID(e))
		if w < 1 {
			t.Fatalf("edge weight %v < 1", w)
		}
		if w > 1 {
			anyAbove = true
		}
	}
	if !anyAbove {
		t.Fatal("no edge was reweighted")
	}
	// Total weight should roughly match the original edge count (unbiased).
	ratio := res.Output.TotalWeight() / float64(g.M())
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("total weight ratio %v; reweighting biased", ratio)
	}
}

func TestSpectralVariantsDiffer(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 7)
	a := applySpec(t, g, "spectral:p=0.5,variant=logn", 1, 2)
	b := applySpec(t, g, "spectral:p=0.5,variant=avgdeg", 1, 2)
	if a.Output.M() == b.Output.M() {
		t.Logf("variants coincidentally equal: %d", a.Output.M())
	}
	if a.Output.M() >= g.M() && b.Output.M() >= g.M() {
		t.Fatal("no compression from either variant")
	}
}

func TestTRBasicOnlyRemovesTriangleEdges(t *testing.T) {
	// A triangle with a long tail: only the 3 triangle edges may vanish.
	edges := []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(0, 2)}
	for v := graph.NodeID(2); v < 20; v++ {
		edges = append(edges, graph.E(v, v+1))
	}
	g := graph.FromEdges(21, false, edges)
	res := applySpec(t, g, "tr:p=1", 3, 1)
	if g.M()-res.Output.M() != 1 {
		t.Fatalf("removed %d edges, want exactly 1 (one triangle)", g.M()-res.Output.M())
	}
	// The tail must be fully intact.
	for v := graph.NodeID(2); v < 20; v++ {
		if !res.Output.HasEdge(v, v+1) {
			t.Fatalf("tail edge (%d, %d) removed", v, v+1)
		}
	}
}

func TestTRZeroPNoOp(t *testing.T) {
	g := gen.PlantedPartition(200, 20, 0.5, 100, 5)
	res := applySpec(t, g, "tr:p=0", 1, 2)
	if res.Output.M() != g.M() {
		t.Fatalf("p=0 removed %d edges", g.M()-res.Output.M())
	}
}

func TestTRP2RemovesMore(t *testing.T) {
	g := gen.PlantedPartition(300, 30, 0.4, 100, 7)
	one := applySpec(t, g, "tr:p=0.5", 9, 2)
	two := applySpec(t, g, "tr:p=0.5,x=2", 9, 2)
	if two.Output.M() >= one.Output.M() {
		t.Fatalf("p-2-TR kept %d >= p-1-TR %d", two.Output.M(), one.Output.M())
	}
}

func TestTREOProtectsSharedEdges(t *testing.T) {
	// Under the protective EO semantics, each triangle loses at most one
	// edge and survivors are shielded, so EO keeps at least as many edges
	// as basic p-1-TR (see the TREO doc comment for the Fig. 6 tension).
	g := gen.PlantedPartition(400, 40, 0.5, 200, 11)
	basic := applySpec(t, g, "tr:p=0.5", 13, 2)
	eo := applySpec(t, g, "tr-eo:p=0.5", 13, 2)
	ct := applySpec(t, g, "tr-ct:p=0.5", 13, 2)
	if eo.Output.M() < basic.Output.M() {
		t.Fatalf("EO kept %d < basic %d", eo.Output.M(), basic.Output.M())
	}
	if ct.Output.M() <= 0 || eo.Output.M() <= 0 {
		t.Fatal("degenerate outputs")
	}
	// All variants do remove something on a triangle-dense graph.
	for _, r := range []*Result{basic, eo, ct} {
		if r.Output.M() == g.M() {
			t.Fatalf("%s removed nothing", r.Params)
		}
	}
}

func TestTREOPreservesConnectivityEmpirically(t *testing.T) {
	// §7.2: the EO variant maintains the number of connected components on
	// triangle-rich graphs.
	g := gen.PlantedPartition(300, 30, 0.6, 300, 17)
	before := components.Count(g)
	res := applySpec(t, g, "tr-eo:p=0.9", 19, 1)
	after := components.Count(res.Output)
	if after != before {
		t.Fatalf("components %d -> %d under EO TR", before, after)
	}
}

func TestTRMaxWeightPreservesMSTWeight(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.WithUniformWeights(gen.PlantedPartition(150, 15, 0.5, 100, seed), 1, 100, seed+1)
		before := props.Kruskal(g)
		res := applySpec(t, g, "tr-maxweight:p=1", seed, 1)
		after := props.Kruskal(res.Output)
		return math.Abs(before.Weight-after.Weight) < 1e-9 && before.Trees == after.Trees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// At seven workers too: the greedy kernel runs in the reference order, so
// no race can delete an edge the MST needs.
func TestTRMaxWeightPreservesMSTWeightInParallelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.WithUniformWeights(gen.PlantedPartition(60, 6, 0.6, 30, seed), 1, 20, seed+1)
		before := props.Kruskal(g)
		after := props.Kruskal(applySpec(t, g, "tr-maxweight:p=1", seed, 7).Output)
		return math.Abs(before.Weight-after.Weight) < 1e-9 && before.Trees == after.Trees
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestTRCollapseShrinksVertices(t *testing.T) {
	g := gen.PlantedPartition(200, 20, 0.6, 100, 23)
	res := applySpec(t, g, "tr-collapse:p=0.8", 29, 2)
	if res.Output.N() >= g.N() {
		t.Fatalf("collapse kept %d vertices of %d", res.Output.N(), g.N())
	}
	if res.VertexMap == nil || len(res.VertexMap) != g.N() {
		t.Fatal("collapse must return a vertex map")
	}
	for _, nv := range res.VertexMap {
		if nv < 0 || int(nv) >= res.Output.N() {
			t.Fatalf("vertex map entry %d out of range", nv)
		}
	}
	// Collapsing never disconnects: component count cannot grow.
	if components.Count(res.Output) > components.Count(g) {
		t.Fatal("collapse increased component count")
	}
}

func TestLowDegreeRemovesLeaves(t *testing.T) {
	g := gen.Star(30)
	res := applySpec(t, g, "lowdeg", 0, 2)
	if res.Output.M() != 0 {
		t.Fatalf("star after leaf removal has %d edges", res.Output.M())
	}
	if res.Output.N() != g.N() {
		t.Fatal("vertex set must be preserved")
	}
}

func TestLowDegreeKeepsCore(t *testing.T) {
	// Triangle with pendant leaves: leaves go, triangle stays.
	g := graph.FromEdges(6, false, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(0, 2),
		graph.E(0, 3), graph.E(1, 4), graph.E(2, 5),
	})
	res := applySpec(t, g, "lowdeg", 0, 1)
	if res.Output.M() != 3 {
		t.Fatalf("m = %d, want 3 (the triangle)", res.Output.M())
	}
	for _, pair := range [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 2}} {
		if !res.Output.HasEdge(pair[0], pair[1]) {
			t.Fatal("triangle edge removed")
		}
	}
}

func TestLowDegreeIterativePeelsChains(t *testing.T) {
	// A path hanging off a cycle peels away entirely under iteration.
	edges := []graph.Edge{}
	for i := graph.NodeID(0); i < 5; i++ {
		edges = append(edges, graph.E(i, (i+1)%5))
	}
	for i := graph.NodeID(5); i < 9; i++ {
		edges = append(edges, graph.E(i-1, i)) // chain 4-5-6-7-8
	}
	g := graph.FromEdges(9, false, edges)
	single := applySpec(t, g, "lowdeg", 0, 1)
	iter := applySpec(t, g, "lowdeg-iter", 0, 1)
	if single.Output.M() <= iter.Output.M() {
		t.Fatalf("iteration did not peel more: %d vs %d", single.Output.M(), iter.Output.M())
	}
	if iter.Output.M() != 5 {
		t.Fatalf("iterative left %d edges, want the 5-cycle", iter.Output.M())
	}
}

func TestSpannerPreservesConnectivity(t *testing.T) {
	for _, k := range []int{2, 8, 32} {
		g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 31)
		res := applySpec(t, g, fmt.Sprintf("spanner:k=%d", k), 37, 2)
		if components.Count(res.Output) != components.Count(g) {
			t.Fatalf("k=%d: spanner changed component count", k)
		}
		if res.Output.M() > g.M() {
			t.Fatalf("k=%d: spanner added edges", k)
		}
	}
}

func TestSpannerLargerKFewerEdges(t *testing.T) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 41)
	prev := g.M() + 1
	for _, k := range []int{2, 8, 32, 128} {
		res := applySpec(t, g, fmt.Sprintf("spanner:k=%d", k), 43, 2)
		if res.Output.M() > prev {
			t.Fatalf("k=%d kept %d edges, more than smaller k (%d)", k, res.Output.M(), prev)
		}
		prev = res.Output.M()
	}
}

func TestSpannerDistanceStretchBounded(t *testing.T) {
	g := gen.Grid2D(20, 20, true)
	k := 4
	res := applySpec(t, g, fmt.Sprintf("spanner:k=%d", k), 47, 1)
	orig := traverse.BFS(g, 0, 1)
	comp := traverse.BFS(res.Output, 0, 1)
	logn := math.Log2(float64(g.N()))
	bound := float64(4*k) * logn // generous O(k log n) stretch slack
	for v := range orig.Dist {
		if orig.Dist[v] < 0 {
			continue
		}
		if comp.Dist[v] < 0 {
			t.Fatalf("vertex %d unreachable in spanner", v)
		}
		if comp.Dist[v] < orig.Dist[v] {
			t.Fatalf("spanner shortened a distance (%d < %d)", comp.Dist[v], orig.Dist[v])
		}
		if float64(comp.Dist[v]) > float64(orig.Dist[v])*bound+bound {
			t.Fatalf("vertex %d stretch %d -> %d exceeds bound", v, orig.Dist[v], comp.Dist[v])
		}
	}
}

func TestSpannerPerVertexKeepsMore(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 53)
	pair := applySpec(t, g, "spanner:k=4,mode=perpair", 59, 2)
	perv := applySpec(t, g, "spanner:k=4,mode=pervertex", 59, 2)
	if perv.Output.M() < pair.Output.M() {
		t.Fatalf("per-vertex kept %d < per-pair %d", perv.Output.M(), pair.Output.M())
	}
}

func TestSpannerKillsTriangles(t *testing.T) {
	// Table 6: spanners, especially for large k, eliminate most triangles.
	g := gen.PlantedPartition(400, 40, 0.5, 200, 61)
	before := triangles.Count(g, 2)
	res := applySpec(t, g, "spanner:k=32", 67, 2)
	after := triangles.Count(res.Output, 2)
	if after*10 > before {
		t.Fatalf("spanner kept %d of %d triangles", after, before)
	}
}

func TestResultStringAndRatios(t *testing.T) {
	g := gen.Cycle(10)
	res := applySpec(t, g, "uniform:p=0.5", 1, 1)
	if res.String() == "" || res.Scheme != "uniform" {
		t.Fatal("result metadata broken")
	}
	if r := res.CompressionRatio(); r < 0 || r > 1 {
		t.Fatalf("ratio %v", r)
	}
}

func BenchmarkUniformRMAT14(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applySpec(b, g, "uniform:p=0.5", uint64(i), 0)
	}
}

func BenchmarkTREO_RMAT12(b *testing.B) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applySpec(b, g, "tr-eo:p=0.5", uint64(i), 0)
	}
}

func BenchmarkSpannerRMAT12(b *testing.B) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applySpec(b, g, "spanner:k=8", uint64(i), 0)
	}
}

// TestVertexSchemesOnDirectedGraph runs the two vertex-deleting schemes on a
// directed graph and compares each output with a filter written by hand: an
// arc survives exactly when neither endpoint was deleted — which for the
// head needs the in-adjacency pass of core.SG.Materialize.
func TestVertexSchemesOnDirectedGraph(t *testing.T) {
	g := gen.WithUniformWeights(gen.RMATDirected(10, 8, 0.57, 0.19, 0.19, 5), 1, 9, 6)
	filter := func(deleted []bool) *graph.Graph {
		b := graph.NewBuilder(g.N(), true)
		b.SetWeighted()
		for e := 0; e < g.M(); e++ {
			if u, v := g.EdgeEndpoints(graph.EdgeID(e)); !deleted[u] && !deleted[v] {
				b.AddEdges([]graph.Edge{{U: u, V: v, W: g.EdgeWeight(graph.EdgeID(e))}})
			}
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	check := func(spec string, seed uint64, deleted []bool) {
		t.Helper()
		gone, onlyAsHead := 0, 0
		for v, d := range deleted {
			if d {
				gone++
				if g.Degree(graph.NodeID(v)) == 0 && g.InDegree(graph.NodeID(v)) > 0 {
					onlyAsHead++
				}
			}
		}
		if gone == 0 || gone == g.N() || onlyAsHead == 0 {
			t.Fatalf("%s: %d of %d vertices deleted, %d reachable only as an arc's head: the case is not exercised", spec, gone, g.N(), onlyAsHead)
		}
		want := filter(deleted)
		for _, workers := range []int{1, 3} {
			if got := applySpec(t, g, spec, seed, workers).Output; !got.Equal(want) {
				t.Errorf("%s at workers=%d: m=%d, the hand filter keeps %d", spec, workers, got.M(), want.M())
			}
		}
	}

	// lowdeg deletes the vertices of (out-)degree zero or one.
	leaves := make([]bool, g.N())
	for v := range leaves {
		leaves[v] = g.Degree(graph.NodeID(v)) <= 1
	}
	check("lowdeg", 0, leaves)

	// vertexsample: replay its draws through the same engine, recording the
	// decisions instead of acting on them.
	const seed, keep = 9, 0.5
	dropped := make([]bool, g.N())
	core.New(g, seed, 1).RunVertexKernel(func(_ *core.SG, r *rng.Rand, v core.VertexView) {
		dropped[v.ID] = keep < r.Float64()
	})
	check(fmt.Sprintf("vertexsample:p=%g", keep), seed, dropped)
}
