package core

import (
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

// BenchmarkRunEdgeKernel is a one-worker compress of packed RMAT(14, 16) by a
// keep-half edge kernel, split where the engine spends it: fetching the
// canonical edge columns, running the kernel over them, and materializing
// the survivors. Each part reports ns per canonical edge.
func BenchmarkRunEdgeKernel(b *testing.B) {
	pg := succinct.Pack(gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1), 1)
	keepHalf := func(sg *SG, r *rng.Rand, e EdgeView) {
		if 0.5 < r.Float64() {
			sg.Del(e.ID)
		}
	}
	perEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pg.M()), "ns/edge")
	}
	b.Run("columns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			New(pg, 1, 1).EdgeColumns()
		}
		perEdge(b)
	})
	sg := New(pg, 1, 1)
	sg.EdgeColumns()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sg.RunEdgeKernel(keepHalf)
		}
		perEdge(b)
	})
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sg.Materialize()
		}
		perEdge(b)
	})
}
