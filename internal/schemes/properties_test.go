package schemes

import (
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// Framework-level invariants that every edge-removal scheme must satisfy,
// checked across random seeds with testing/quick. These are the guarantees
// Table 3's footnote states: "since the listed compression schemes return a
// subgraph of the original graph, m, CG, d, T, and M̂C never increase".

// allSchemes runs every subgraph-producing scheme on g with the given seed.
func allSchemes(t testing.TB, g *graph.Graph, seed uint64) []*Result {
	return []*Result{
		applySpec(t, g, "uniform:p=0.6", seed, 2),
		applySpec(t, g, "spectral:p=1,variant=logn", seed, 2),
		applySpec(t, g, "spectral:p=0.5,variant=avgdeg", seed, 2),
		applySpec(t, g, "tr:p=0.7", seed, 2),
		applySpec(t, g, "tr-eo:p=0.7", seed, 2),
		applySpec(t, g, "tr-ct:p=0.7", seed, 2),
		applySpec(t, g, "tr-eo-redirect:p=0.7", seed, 2),
		applySpec(t, g, "tr:p=0.7,x=2", seed, 2),
		applySpec(t, g, "lowdeg", 0, 2),
		applySpec(t, g, "spanner:k=4", seed, 2),
		applySpec(t, g, "spanner:k=4,mode=perpair", seed, 2),
		applySpec(t, g, "cut:rho=6", seed, 2),
		applySpec(t, g, "vertexsample:p=0.8", seed, 2),
	}
}

func TestEverySchemeReturnsSubgraphProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.PlantedPartition(200, 20, 0.5, 150, seed)
		for _, res := range allSchemes(t, g, seed) {
			out := res.Output
			if out.N() != g.N() {
				return false // vertex set preserved (no scheme here compacts)
			}
			if out.M() > g.M() {
				return false // m never increases
			}
			for e := 0; e < out.M(); e++ {
				u, v := out.EdgeEndpoints(graph.EdgeID(e))
				if !g.HasEdge(u, v) {
					return false // every surviving edge existed
				}
			}
			if out.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestEverySchemeDeterministicAcrossWorkersProperty(t *testing.T) {
	// For a fixed seed, the worker count must not change the output of any
	// scheme (Scheme.Apply): not of the Edge-Once variants, whose claims
	// follow an order-free rule, nor of the greedy ones, which run in the
	// reference order, nor of tr-collapse, whose union order moves with the
	// schedule but whose partition does not.
	g := gen.PlantedPartition(150, 15, 0.5, 120, 77)
	weighted := gen.WithUniformWeights(g, 1, 100, 78)
	run := func(workers int) []*Result {
		return []*Result{
			applySpec(t, g, "uniform:p=0.6", 5, workers),
			applySpec(t, g, "spectral:p=1,variant=logn", 5, workers),
			applySpec(t, g, "tr:p=0.7", 5, workers),
			applySpec(t, g, "tr-eo:p=0.7", 5, workers),
			applySpec(t, g, "tr-ct:p=0.7", 5, workers),
			applySpec(t, weighted, "tr-maxweight:p=0.9", 5, workers),
			applySpec(t, g, "tr-eo-redirect:p=0.7", 5, workers),
			applySpec(t, g, "lowdeg", 0, workers),
			applySpec(t, g, "cut:rho=6", 5, workers),
			applySpec(t, g, "vertexsample:p=0.8", 5, workers),
			applySpec(t, g, "tr-collapse:p=0.5", 5, workers),
		}
	}
	a, b := run(1), run(8)
	for i := range a {
		if !a[i].Output.Equal(b[i].Output) {
			t.Errorf("%s: m=%d at workers=1 but the workers=8 output (m=%d) differs",
				a[i].Scheme, a[i].Output.M(), b[i].Output.M())
		}
	}
}

func TestMaxDegreeNeverIncreasesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.RMAT(8, 8, 0.57, 0.19, 0.19, seed)
		for _, res := range allSchemes(t, g, seed) {
			if res.Output.MaxDegree() > g.MaxDegree() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedInputsSurviveEverySchemeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := gen.WithUniformWeights(gen.PlantedPartition(120, 12, 0.5, 100, seed), 1, 9, seed+1)
		for _, res := range allSchemes(t, g, seed) {
			out := res.Output
			if !out.Weighted() {
				return false // weights must not be silently dropped
			}
			for e := 0; e < out.M(); e++ {
				if out.EdgeWeight(graph.EdgeID(e)) <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}
