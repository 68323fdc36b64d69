//go:build !race

package schemes

// Allocation pins for whole Apply calls at one worker: engine build, kernel
// run and materialization together allocate a few dozen objects, not one per
// edge, triangle or vertex (the parent allocated a generator per kernel
// instance and, in spanner, a map per vertex). Excluded under -race, whose
// instrumentation inflates AllocsPerRun.

import (
	"testing"

	"slimgraph/internal/gen"
)

func TestApplyAllocationsIndependentOfSize(t *testing.T) {
	g := gen.RMAT(12, 16, 0.57, 0.19, 0.19, 77) // 50k edges, 400k triangles
	for _, spec := range []string{"uniform:p=0.5", "spectral:p=0.5,reweight=true", "vertexsample:p=0.7",
		"tr-eo:p=0.8", "tr:p=0.5", "spanner:k=8", "spanner:k=8,mode=perpair"} {
		s, err := Parse(spec, WithSeed(1), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := s.Apply(g); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 300 {
			t.Errorf("%s: Apply allocates %.0f times on n=%d m=%d", spec, allocs, g.N(), g.M())
		}
	}
}

// TestParseAllocations pins the cost of the one construction path: Parse
// sits on the cache-hit path of every ?spec= query and in every batch
// compress, so a stage must cost a scheme value and its argument slice, not
// a closure or a map per key. This spec takes 10 allocations.
func TestParseAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse("tr-eo:p=0.8|spanner:k=8", WithSeed(1), WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Errorf("Parse allocates %.0f times, want <= 12", allocs)
	}
}
