package triangles_test

// Acceptance pins of the triangle engine at evaluation scale, run by CI
// (skipped under -short): on the Graph500-parameter R-MAT graph
// (n = 2^17, m ~ 1.86M) Engine.Count must beat the preserved pre-engine
// implementation (internal/oracle) by >= 2x — a deliberately generous bar,
// ~4x when the engine landed — with bit-identical results.

import (
	"testing"
	"time"

	"slimgraph/internal/gen"
	"slimgraph/internal/oracle"
	"slimgraph/internal/triangles"
)

func TestTriangleEngineAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("evaluation-scale graphs; skipped with -short")
	}
	g := gen.RMAT(17, 16, 0.57, 0.19, 0.19, 77)

	start := time.Now()
	refCount := oracle.ReferenceCount(g, 0)
	refTime := time.Since(start)

	start = time.Now()
	engCount := triangles.Count(g, 0) // includes NewEngine construction
	engTime := time.Since(start)

	if engCount != refCount {
		t.Fatalf("engine Count = %d, reference %d", engCount, refCount)
	}
	speedup := refTime.Seconds() / engTime.Seconds()
	t.Logf("rmat-17-16: n=%d m=%d T=%d reference=%s engine=%s speedup=%.2fx",
		g.N(), g.M(), refCount, refTime, engTime, speedup)
	if speedup < 2 {
		t.Fatalf("engine Count speedup %.2fx below the 2x acceptance bar "+
			"(reference %s, engine %s)", speedup, refTime, engTime)
	}
}
