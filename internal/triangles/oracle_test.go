package triangles_test

// The engine pinned to the preserved pre-engine enumeration
// (internal/oracle): identical triangles in identical sequential order,
// identical counts per vertex and per edge.

import (
	"slices"
	"sync"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/oracle"
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
