package graph_test

import (
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// BenchmarkBuildUnsorted times FromEdges on rmat14's draw-order edges
// (self-loops, duplicates and hub buckets included): the unsorted build
// behind every generator and the text edge-list reader. Run it with
// -cpu 1,2 to see its parallel part.
func BenchmarkBuildUnsorted(b *testing.B) {
	edges := gen.RMATEdges(14, 16, 0.57, 0.19, 0.19, 77)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = graph.FromEdges(1<<14, false, edges)
	}
}
