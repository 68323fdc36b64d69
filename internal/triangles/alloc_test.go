//go:build !race

package triangles

import (
	"testing"

	"slimgraph/internal/gen"
)

// Scratch is per worker, not per grain: a count on a prebuilt substrate —
// Engine.Count, or a Forward.CountPart of a work slice — allocates a
// constant number of slices per worker (counter row, stamp array and the
// goroutine itself), and emission adds one batch buffer per worker — while a
// worker claims 16 grains. Excluded under -race, whose instrumentation
// allocates on its own.
func TestScratchAllocatedPerWorker(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	en, f := NewEngine(g, 1), NewForward(g, 1)
	sink := func([]Triangle) {}
	newSink := func() func([]Triangle) { return sink }
	for _, workers := range []int{1, 2, 7} {
		en, f := en.WithWorkers(workers), f.WithWorkers(workers)
		count := testing.AllocsPerRun(5, func() { en.Count() })
		part := testing.AllocsPerRun(5, func() { f.CountPart(1, 3) })
		emit := testing.AllocsPerRun(5, func() { en.ForEachBatch(newSink) })
		t.Logf("workers %d (%d grains): Count %.0f allocations, CountPart %.0f, ForEachBatch %.0f", workers, 16*workers, count, part, emit)
		if limit := float64(4 + 4*workers); count > limit || part > limit {
			t.Errorf("workers %d: Count allocates %.0f times, CountPart %.0f, want <= %.0f", workers, count, part, limit)
		}
		if limit := float64(4 + 6*workers); emit > limit {
			t.Errorf("workers %d: ForEachBatch allocates %.0f times, want <= %.0f", workers, emit, limit)
		}
	}
}
