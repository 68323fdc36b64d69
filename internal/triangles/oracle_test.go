package triangles_test

// The engine pinned to the preserved pre-engine enumeration
// (internal/oracle): identical triangles in identical sequential order,
// identical counts per vertex and per edge.

import (
	"slices"
	"sync"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/oracle"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
	"slimgraph/internal/triangles"
)

// List is the reference sequence whatever the engine's worker count, and
// Count the reference count, on every differential graph.
func TestListMatchesReferenceOrder(t *testing.T) {
	for name, g := range triangles.DiffGraphs() {
		want := oracle.ReferenceList(g)
		for _, workers := range []int{1, 2, 7} {
			en := triangles.NewEngine(g, workers)
			if got := en.Count(); got != int64(len(want)) {
				t.Fatalf("%s workers %d: Count = %d, reference lists %d", name, workers, got, len(want))
			}
			if got := en.List(); !slices.Equal(got, want) {
				t.Fatalf("%s workers %d: List (%d triangles) is not the reference sequence (%d)", name, workers, len(got), len(want))
			}
		}
	}
}

func TestEngineReuse(t *testing.T) {
	// One engine drives every enumeration; results match the single-use
	// wrappers and the reference path.
	g := gen.RMAT(9, 10, 0.57, 0.19, 0.19, 5)
	en := triangles.NewEngine(g, 4)
	if en.Graph() != g {
		t.Fatal("engine does not report its graph")
	}
	if got, want := en.Count(), oracle.ReferenceCount(g, 1); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if !slices.Equal(en.PerVertex(), oracle.ReferencePerVertex(g, 1)) {
		t.Fatal("PerVertex mismatch")
	}
	if !slices.Equal(en.PerEdge(), oracle.ReferencePerEdge(g, 1)) {
		t.Fatal("PerEdge mismatch")
	}
	var viaForEach int64
	var mu sync.Mutex
	en.ForEach(func(triangles.Triangle) { mu.Lock(); viaForEach++; mu.Unlock() })
	if viaForEach != en.Count() {
		t.Fatalf("ForEach saw %d triangles, Count %d", viaForEach, en.Count())
	}
}

// TestEnginePartsSumToCount pins the contract a cluster's exact count
// stands on: for every number of parts — more parts than vertices included —
// the work slices of Forward.CountPart tile the vertex order, so their counts
// add up to Count() and to the pre-engine enumeration's count, on raw and
// packed forms and for any worker count. A part stamps each vertex's list
// afresh, so it never relies on its predecessor's stamps.
func TestEnginePartsSumToCount(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat10": gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77),
		"grid32": gen.Grid2D(32, 32, true),
		"path":   gen.Path(3),
		"empty":  gen.ErdosRenyi(0, 0, 1),
	}
	for _, name := range []string{"star-of-cliques", "two-hub", "clique"} {
		graphs[name] = triangles.DiffGraphs()[name]
	}
	for name, g := range graphs {
		want := oracle.ReferenceCount(g, 1)
		for form, a := range map[string]graph.AdjacencyEdges{"raw": g, "packed": succinct.Pack(g, 1)} {
			for _, workers := range []int{1, 3} {
				if got := triangles.NewEngine(a, workers).Count(); got != want {
					t.Fatalf("%s/%s workers %d: Engine.Count = %d, reference %d", name, form, workers, got, want)
				}
				f := triangles.NewForward(a, workers)
				if got := f.Count(); got != want {
					t.Fatalf("%s/%s workers %d: Forward.Count = %d, reference %d", name, form, workers, got, want)
				}
				for _, of := range []int{1, 2, 3, 7, g.N() + 1} {
					var sum int64
					for i := 0; i < of; i++ {
						sum += f.CountPart(i, of)
					}
					if sum != want {
						t.Errorf("%s/%s workers %d: %d parts sum to %d triangles, reference %d", name, form, workers, of, sum, want)
					}
				}
			}
		}
	}
}

// TestCountApproxIsTheSequentialSample pins DOULION's estimate to the last
// bit: whatever the worker count and representation, it is the exact count
// of the edges a sequential pass over the hashed coins keeps, over p³.
func TestCountApproxIsTheSequentialSample(t *testing.T) {
	g := gen.RMAT(11, 12, 0.57, 0.19, 0.19, 5)
	forms := map[string]graph.AdjacencyEdges{"raw": g, "packed": succinct.Pack(g, 1)}
	for _, p := range []float64{1, 0.6, 0.05} {
		for seed := uint64(1); seed <= 3; seed++ {
			var kept []graph.Edge
			for e := 0; e < g.M(); e++ {
				if float64(rng.Hash64(seed, uint64(e))>>11)/(1<<53) < p {
					u, v := g.EdgeEndpoints(graph.EdgeID(e))
					kept = append(kept, graph.Edge{U: u, V: v, W: 1})
				}
			}
			want := float64(oracle.ReferenceCount(graph.FromEdges(g.N(), false, kept), 1)) / (p * p * p)
			for form, a := range forms {
				for _, workers := range []int{1, 2, 7} {
					if got := triangles.CountApprox(a, p, seed, workers); got != want {
						t.Errorf("p=%v seed=%d %s workers=%d: estimate %v, sequential sample gives %v", p, seed, form, workers, got, want)
					}
				}
			}
		}
	}
}
