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
	"slimgraph/internal/succinct"
	"slimgraph/internal/triangles"
)

func TestListMatchesReferenceOrder(t *testing.T) {
	for name, g := range triangles.DiffGraphs() {
		want := oracle.ReferenceList(g)
		got := triangles.List(g)
		if len(got) != len(want) {
			t.Fatalf("%s: List has %d triangles, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: triangle %d = %+v, reference %+v", name, i, got[i], want[i])
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
// stands on: for every number of parts — more parts than edges included —
// the work slices tile the edge order, so their counts add up to Count()
// and to the pre-engine enumeration's count, on raw and packed forms and
// for any worker count.
func TestEnginePartsSumToCount(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat10": gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77),
		"grid32": gen.Grid2D(32, 32, true),
		"path":   gen.Path(3),
		"empty":  gen.ErdosRenyi(0, 0, 1),
	} {
		want := oracle.ReferenceCount(g, 1)
		for form, a := range map[string]graph.AdjacencyEdges{"raw": g, "packed": succinct.Pack(g, 1)} {
			for _, workers := range []int{1, 3} {
				en := triangles.NewEngine(a, workers)
				if got := en.Count(); got != want {
					t.Fatalf("%s/%s workers %d: Count = %d, reference %d", name, form, workers, got, want)
				}
				for _, of := range []int{1, 2, 3, 7, g.M() + 5} {
					var sum int64
					for i := 0; i < of; i++ {
						sum += en.CountPart(i, of)
					}
					if sum != want {
						t.Errorf("%s/%s workers %d: %d parts sum to %d triangles, Count is %d", name, form, workers, of, sum, want)
					}
				}
			}
		}
	}
}
