//go:build !race

package triangles

import (
	"math"
	"runtime"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
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

// TestCountApproxAllocatesTheSample: DOULION flips its coins inside the one
// canonical scan and keeps only the winners, so a one-worker estimate on
// RMAT(14, 16) at p = 0.1 allocates the sample and what is built from it —
// at most 32 B per expected kept edge and 96 B per vertex — on the raw CSR
// and on its packed form alike, never an edge column or an ID per edge. The
// fewest bytes of five calls is compared, since another goroutine may
// allocate beside any one of them.
func TestCountApproxAllocatesTheSample(t *testing.T) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77)
	const p = 0.1
	limit := uint64(32*p*float64(g.M())) + 96*uint64(g.N())
	for name, a := range map[string]graph.AdjacencyEdges{"raw": g, "packed": succinct.Pack(g, 0)} {
		fewest := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			CountApprox(a, p, 1, 1)
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s: %d B per estimate (limit %d)", name, fewest, limit)
		if fewest > limit {
			t.Errorf("%s: CountApprox at p = %g allocates %d B, want at most %d (32 per expected kept edge + 96 per vertex)",
				name, p, fewest, limit)
		}
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

// SizeBytes is what a catalog charges for a cached arena and what the
// served resident bytes report, so it must be the heap a kept build holds:
// within 2 % of the live-heap growth across a NewForward over the pinned
// rmat14 whose result stays reachable. The build's scratch is garbage by
// the second collection.
func TestSizeBytesIsTheLiveHeap(t *testing.T) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := NewForward(g, 1)
	runtime.GC()
	runtime.ReadMemStats(&after)
	live, size := int64(after.HeapAlloc)-int64(before.HeapAlloc), f.SizeBytes()
	t.Logf("rmat14: SizeBytes %d, live heap %d (%.1f bits per edge)", size, live, float64(size)*8/float64(g.M()))
	if math.Abs(float64(live-size)) > 0.02*float64(size) {
		t.Errorf("rmat14: SizeBytes %d, but the kept build holds %d heap bytes", size, live)
	}
	runtime.KeepAlive(f)
}
