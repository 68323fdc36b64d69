//go:build !race

package core

// Allocation pins for the four kernel loops: a run allocates per chunk (one
// generator, the loop closures, for triangles one emission buffer per range)
// and per run (engine, member array) — never per element. Each loop is
// measured on a graph and on one eight times its size against the same
// bound. Excluded under -race, whose instrumentation inflates AllocsPerRun.

import (
	"runtime"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

func TestKernelLoopsAllocatePerChunkNotPerElement(t *testing.T) {
	small := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	large := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	stripes := func(g *graph.Graph) ([]int32, int) {
		count := g.N() / 4
		mapping := make([]int32, g.N())
		for v := range mapping {
			mapping[v] = int32(v % count)
		}
		return mapping, count
	}
	loops := []struct {
		name string
		run  func(sg *SG, g *graph.Graph)
	}{
		{"edge", func(sg *SG, _ *graph.Graph) {
			sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
				if r.Float64() < 0.5 {
					sg.Del(e.ID)
				}
			})
		}},
		{"vertex", func(sg *SG, _ *graph.Graph) {
			sg.RunVertexKernel(func(sg *SG, r *rng.Rand, v VertexView) {
				if r.Float64() < 0.5 {
					sg.DelVertex(v.ID)
				}
			})
		}},
		{"triangle", func(sg *SG, _ *graph.Graph) {
			sg.RunTriangleKernel(func(sg *SG, r *rng.Rand, tr TriangleView) {
				if r.Float64() < 0.5 {
					sg.Del(tr.E[r.Intn(3)])
				}
			})
		}},
		{"subgraph", func(sg *SG, g *graph.Graph) {
			mapping, count := stripes(g)
			sg.RunSubgraphKernel(mapping, count, func(sg *SG, r *rng.Rand, s SubgraphView) {
				if r.Float64() < 0.5 {
					sg.DelVertex(s.Members[0])
				}
			})
		}},
	}
	for _, workers := range []int{1, 2} {
		// Per run: the SG with its three bitsets, the triangle engine's
		// arrays, the subgraph mapping and member arrays. Per chunk or range
		// (8 per worker, 16 for triangles): a generator, the closures, an
		// emission buffer.
		bound := float64(48 + 80*workers)
		for _, loop := range loops {
			for _, g := range []*graph.Graph{small, large} {
				allocs := testing.AllocsPerRun(3, func() { loop.run(New(g, 1, workers), g) })
				if allocs > bound {
					t.Errorf("%s kernel, workers=%d, n=%d m=%d: %.0f allocations, want at most %.0f whatever the size",
						loop.name, workers, g.N(), g.M(), allocs, bound)
				}
			}
		}
	}
}

// A triangle-kernel run with an idle predicate still allocates nothing per
// triangle, retired or not.
func TestGuardedTriangleKernelAllocations(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	en := triangles.NewEngine(g, 1)
	allocs := testing.AllocsPerRun(3, func() {
		sg := New(g, 1, 1)
		sg.RunTriangleKernelOn(en, func(sg *SG, r *rng.Rand, tr TriangleView) {
			sg.Del(tr.E[r.Intn(3)])
		}, func(t *triangles.Triangle) bool {
			return sg.Deleted(t.E[0]) && sg.Deleted(t.E[1]) && sg.Deleted(t.E[2])
		})
	})
	if allocs > 32 {
		t.Errorf("guarded triangle kernel run allocates %.0f times over %d triangles", allocs, en.Count())
	}
}

// A run that never reweights holds no m-length uint64 column: New plus a
// deleting edge kernel allocate the three bitsets (3m/8 bytes) and a few
// small objects, far below the 8m bytes the column costs.
func TestDeletingKernelAllocatesNoWeightColumn(t *testing.T) {
	g := gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sg := New(g, 1, 1)
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		if r.Float64() < 0.5 {
			sg.Del(e.ID)
		}
	})
	runtime.ReadMemStats(&after)
	if got, column := after.TotalAlloc-before.TotalAlloc, uint64(8*g.M()); got > column/2 {
		t.Errorf("New + deleting edge kernel allocate %d bytes; a weight column alone is %d", got, column)
	}
}
