package schemes

import (
	"fmt"
	"math"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/mincut"
)

// bottleneck builds two cliques of size s joined by `bridges` edges; the
// global min cut is exactly the bridge count.
func bottleneck(s, bridges int) *graph.Graph {
	edges := []graph.Edge{}
	for u := 0; u < s; u++ {
		for v := u + 1; v < s; v++ {
			edges = append(edges, graph.E(graph.NodeID(u), graph.NodeID(v)))
			edges = append(edges, graph.E(graph.NodeID(u+s), graph.NodeID(v+s)))
		}
	}
	for b := 0; b < bridges; b++ {
		edges = append(edges, graph.E(graph.NodeID(b%s), graph.NodeID(s+(b+1)%s)))
	}
	return graph.FromEdges(2*s, false, edges)
}

func TestForestIndicesBottleneck(t *testing.T) {
	g := bottleneck(10, 2)
	idx := forestIndices(g)
	// Bridge edges connect otherwise-separate components: index 1 or 2.
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		isBridge := (int(u) < 10) != (int(v) < 10)
		if isBridge && idx[e] > 2 {
			t.Fatalf("bridge edge (%d,%d) got strength index %d", u, v, idx[e])
		}
		if idx[e] < 1 {
			t.Fatalf("edge %d unassigned", e)
		}
	}
}

func TestForestIndicesTree(t *testing.T) {
	g := gen.Path(50)
	for e, i := range forestIndices(g) {
		if i != 1 {
			t.Fatalf("tree edge %d index %d, want 1", e, i)
		}
	}
}

func TestCutSparsifyKeepsWeakEdges(t *testing.T) {
	// Bridges have strength <= 2 << rho, so they must all survive.
	g := bottleneck(20, 3)
	res := applySpec(t, g, "cut:rho=8", 1, 2)
	bridgesKept := 0
	for e := 0; e < res.Output.M(); e++ {
		u, v := res.Output.EdgeEndpoints(graph.EdgeID(e))
		if (int(u) < 20) != (int(v) < 20) {
			bridgesKept++
		}
	}
	if bridgesKept != 3 {
		t.Fatalf("kept %d of 3 bridges", bridgesKept)
	}
	if res.Output.M() >= g.M() {
		t.Fatal("no compression inside cliques")
	}
}

func TestCutSparsifyPreservesMinCut(t *testing.T) {
	g := bottleneck(20, 4)
	before := mincut.StoerWagner(g)
	res := applySpec(t, g, "cut", 3, 2) // default rho
	after := mincut.StoerWagner(res.Output)
	if math.Abs(after-before) > 0.5*before {
		t.Fatalf("min cut %v -> %v (more than 50%% drift)", before, after)
	}
	// Uniform sampling at the same edge budget does NOT protect the cut.
	keep := res.CompressionRatio()
	uni := applySpec(t, g, fmt.Sprintf("uniform:p=%g", keep), 3, 2)
	uniCut := mincut.StoerWagner(uni.Output)
	if uniCut >= after {
		t.Logf("note: uniform cut %v >= sparsifier cut %v on this seed", uniCut, after)
	}
}

func TestCutSparsifyOutputWeighted(t *testing.T) {
	g := gen.Complete(30)
	res := applySpec(t, g, "cut:rho=4", 5, 2)
	if !res.Output.Weighted() {
		t.Fatal("reweighted sparsifier output must be weighted")
	}
	// Total weight stays near m (unbiased estimator of each cut).
	ratio := res.Output.TotalWeight() / float64(g.M())
	if ratio < 0.6 || ratio > 1.4 {
		t.Fatalf("total weight ratio %v; cut estimate biased", ratio)
	}
}

func TestCutSparsifyConnectivityPreserved(t *testing.T) {
	g := gen.PlantedPartition(300, 30, 0.5, 200, 7)
	res := applySpec(t, g, "cut", 9, 2)
	// Forest-1 edges (strength 1) always stay with rho >= 1, so the
	// component structure is intact.
	if got, want := componentsOf(res.Output), componentsOf(g); got != want {
		t.Fatalf("components %d -> %d", want, got)
	}
}

func componentsOf(g *graph.Graph) int {
	seen := make([]bool, g.N())
	count := 0
	var stack []graph.NodeID
	for s := 0; s < g.N(); s++ {
		if seen[s] {
			continue
		}
		count++
		seen[s] = true
		stack = append(stack[:0], graph.NodeID(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	return count
}

func TestVertexSampleExtremes(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 1)
	if res := applySpec(t, g, "vertexsample:p=1", 1, 2); res.Output.M() != g.M() {
		t.Fatal("keep=1 removed edges")
	}
	if res := applySpec(t, g, "vertexsample:p=0", 1, 2); res.Output.M() != 0 {
		t.Fatal("keep=0 kept edges")
	}
}

func TestVertexSampleRatioQuadratic(t *testing.T) {
	// An edge survives iff both endpoints do: expected ratio = keep^2.
	g := gen.ErdosRenyi(2000, 20000, 3)
	res := applySpec(t, g, "vertexsample:p=0.7", 5, 4)
	want := 0.7 * 0.7
	if math.Abs(res.CompressionRatio()-want) > 0.05 {
		t.Fatalf("ratio %v, want ~%v", res.CompressionRatio(), want)
	}
	if res.Output.N() != g.N() {
		t.Fatal("vertex IDs must be preserved")
	}
}
