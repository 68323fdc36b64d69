//go:build !race

package centrality

// Allocation pin for PageRankOn over a packed graph: a call allocates its
// fixed vectors (degrees, dangling list, rank, next, contrib) and one list
// decode buffer per worker — nothing per vertex, and per iteration only the
// small closures the parallel loops and the pull step take (one per chunk),
// never a slice. Excluded under -race, whose instrumentation inflates
// AllocsPerRun.

import (
	"runtime"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/succinct"
)

func TestPageRankOnPackedAllocations(t *testing.T) {
	small := succinct.Pack(gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3), 0)
	large := succinct.Pack(gen.RMAT(12, 8, 0.57, 0.19, 0.19, 3), 0)
	run := func(pg *succinct.PackedGraph, workers, iters int) (allocs float64, bytes uint64) {
		opts := PageRankOptions{Workers: workers, MaxIter: iters, Tolerance: 1e-300}
		allocs = testing.AllocsPerRun(5, func() { PageRank(pg, opts) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		PageRank(pg, opts)
		runtime.ReadMemStats(&after)
		return allocs, after.TotalAlloc - before.TotalAlloc
	}

	// One worker: the vectors, the doubling growth of the dangling list and
	// of the decode buffer, and a few closures per iteration — whatever the
	// graph size.
	const perIter = 8
	for _, pg := range []*succinct.PackedGraph{small, large} {
		if allocs, _ := run(pg, 1, 2); allocs > 32+2*perIter {
			t.Errorf("n=%d: PageRankOn allocates %.0f times in 2 iterations, want a small constant", pg.N(), allocs)
		}
	}
	short, shortBytes := run(large, 1, 2)
	long, longBytes := run(large, 1, 42)
	if long-short > 40*perIter {
		t.Errorf("PageRankOn allocates %.1f times per iteration, want at most %d closures", (long-short)/40, perIter)
	}
	// No slice per iteration: 40 more iterations cost less than one n-vector.
	if vector := uint64(8 * large.N()); longBytes-shortBytes > vector/2 {
		t.Errorf("40 extra iterations allocate %d bytes; an n-vector is %d", longBytes-shortBytes, vector)
	}

	// Several workers: one decode buffer each, plus per iteration the
	// goroutine start-up of three parallel loops and one closure per chunk
	// (8 chunks per worker) — a bound in workers and iterations, two orders
	// of magnitude below one allocation per vertex.
	const workers, iters = 4, 10
	if allocs, _ := run(large, workers, iters); allocs > float64(workers*(16+20*iters)) {
		t.Errorf("PageRankOn with %d workers allocates %.0f times over %d iterations (n=%d)",
			workers, allocs, iters, large.N())
	}
}
