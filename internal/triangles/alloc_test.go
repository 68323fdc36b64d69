//go:build !race

package triangles

import (
	"testing"

	"slimgraph/internal/gen"
)

// Scratch is per worker, not per grain: Count on a prebuilt engine allocates
// a constant number of slices per worker (counter row, stamp array and the
// goroutine itself), and emission adds one batch buffer per worker — while a
// worker claims 16 grains. Excluded under -race, whose instrumentation
// allocates on its own.
func TestScratchAllocatedPerWorker(t *testing.T) {
	en := NewEngine(gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3), 1)
	sink := func([]Triangle) {}
	newSink := func() func([]Triangle) { return sink }
	for _, workers := range []int{1, 2, 7} {
		en := en.WithWorkers(workers)
		count := testing.AllocsPerRun(5, func() { en.Count() })
		emit := testing.AllocsPerRun(5, func() { en.ForEachBatch(newSink) })
		t.Logf("workers %d (%d grains): Count %.0f allocations, ForEachBatch %.0f", workers, 16*workers, count, emit)
		if limit := float64(4 + 4*workers); count > limit {
			t.Errorf("workers %d: Count allocates %.0f times, want <= %.0f", workers, count, limit)
		}
		if limit := float64(4 + 6*workers); emit > limit {
			t.Errorf("workers %d: ForEachBatch allocates %.0f times, want <= %.0f", workers, emit, limit)
		}
	}
}
