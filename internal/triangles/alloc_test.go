//go:build !race

package triangles

import (
	"math"
	"runtime"
	"testing"

	"slimgraph/internal/gen"
)

// Scratch is per worker, not per grain: a count on a prebuilt substrate —
// Engine.Count or Forward.Count — allocates a constant number of slices per
// worker (counter row, stamp array and the goroutine itself), and emission
// adds one batch buffer per worker — while a worker claims 16 grains. Excluded under -race, whose instrumentation
// allocates on its own.
func TestScratchAllocatedPerWorker(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	en, f := NewEngine(g, 1), NewForward(g, 1)
	sink := func([]Triangle) {}
	newSink := func() func([]Triangle) { return sink }
	for _, workers := range []int{1, 2, 7} {
		en, f := en.WithWorkers(workers), f.WithWorkers(workers)
		count := testing.AllocsPerRun(5, func() { en.Count() })
		fwd := testing.AllocsPerRun(5, func() { f.Count() })
		emit := testing.AllocsPerRun(5, func() { en.ForEachBatch(newSink) })
		t.Logf("workers %d (%d grains): Engine.Count %.0f allocations, Forward.Count %.0f, ForEachBatch %.0f", workers, 16*workers, count, fwd, emit)
		if limit := float64(4 + 4*workers); count > limit || fwd > limit {
			t.Errorf("workers %d: Engine.Count allocates %.0f times, Forward.Count %.0f, want <= %.0f", workers, count, fwd, limit)
		}
		if limit := float64(4 + 6*workers); emit > limit {
			t.Errorf("workers %d: ForEachBatch allocates %.0f times, want <= %.0f", workers, emit, limit)
		}
	}
}

// TestCountApproxKeepsItsWorkerBudget: at workers = 1 the estimate runs
// serially whatever GOMAXPROCS is — sampling, the sampled graph's build and
// its count fan out to no goroutine — so it allocates as often under
// GOMAXPROCS 4 as under 1. The fewest of five runs is compared, since the
// runtime may allocate beside any one of them.
func TestCountApproxKeepsItsWorkerBudget(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	run := func() { CountApprox(g, 0.5, 1, 1) }
	serial, wide := mallocs(1, run), mallocs(4, run)
	if wide > serial {
		t.Errorf("workers 1: %d allocations under GOMAXPROCS 4, %d under 1", wide, serial)
	}
}

// mallocs is the fewest heap allocations of five calls of fn under
// GOMAXPROCS procs, after one warm-up call. testing.AllocsPerRun would pin
// GOMAXPROCS to 1 itself.
func mallocs(procs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
	fewest := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}
