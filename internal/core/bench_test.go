package core

import (
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

// BenchmarkRunEdgeKernel is a one-worker compress of RMAT(14, 16), raw and
// packed, by a keep-half edge kernel, split where the engine spends it:
// fetching the canonical edge columns, running the kernel over them, and
// materializing the survivors. Each part reports ns per canonical edge.
func BenchmarkRunEdgeKernel(b *testing.B) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 1)
	keepHalf := func(sg *SG, r *rng.Rand, e EdgeView) {
		if 0.5 < r.Float64() {
			sg.Del(e.ID)
		}
	}
	perEdge := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.M()), "ns/edge")
	}
	for _, in := range []struct {
		form string
		a    graph.AdjacencyEdges
	}{{"raw", g}, {"packed", succinct.Pack(g, 1)}} {
		b.Run(in.form+"/columns", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				New(in.a, 1, 1).EdgeColumns()
			}
			perEdge(b)
		})
		sg := New(in.a, 1, 1)
		sg.EdgeColumns()
		b.Run(in.form+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sg.RunEdgeKernel(keepHalf)
			}
			perEdge(b)
		})
		b.Run(in.form+"/materialize", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sg.Materialize()
			}
			perEdge(b)
		})
	}
}
