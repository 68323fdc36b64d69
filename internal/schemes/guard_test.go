package schemes

import (
	"testing"

	"slimgraph/internal/core"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/triangles"
)

// TestTRIdlePredicatesAreExact runs every non-collapse TR variant with its
// idle predicate and without one (nil: every instance runs) on the same
// engine at one worker. Retiring idle instances must leave the deletion set
// — and so the output — untouched, and on graphs this dense each predicate
// must actually retire instances.
func TestTRIdlePredicatesAreExact(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"planted":  gen.PlantedPartition(300, 20, 0.5, 200, 5),
		"rmat":     gen.RMAT(9, 12, 0.57, 0.19, 0.19, 6),
		"weighted": gen.WithUniformWeights(gen.PlantedPartition(200, 25, 0.6, 100, 7), 1, 100, 8),
	}
	variants := []struct {
		variant TRVariant
		p       float64
		x       int
	}{
		{TRBasic, 0.9, 1}, {TRBasic, 0.9, 2}, {TREO, 0.8, 1}, {TRCT, 0.7, 1},
		{TRMaxWeight, 0.9, 1}, {TREORedirect, 0.5, 1},
	}
	for name, g := range graphs {
		eng := triangles.NewEngine(g, 1)
		perEdge := eng.PerEdge()
		for _, v := range variants {
			for seed := uint64(1); seed <= 3; seed++ {
				run := func(guarded bool) (out *graph.Graph, retired int) {
					sg := core.New(g, seed, 1)
					var idle core.TriangleIdle
					if guarded {
						inner := trIdle(sg, v.variant)
						idle = func(t *triangles.Triangle) bool {
							if inner(t) {
								retired++
								return true
							}
							return false
						}
					}
					sg.RunTriangleKernelOn(eng, trKernel(v.variant, v.p, v.x, perEdge), idle)
					return sg.Materialize(), retired
				}
				want, _ := run(false)
				got, retired := run(true)
				if !got.Equal(want) {
					t.Errorf("%s %s x=%d seed=%d: guarded output differs from unguarded (m %d vs %d)",
						name, v.variant, v.x, seed, got.M(), want.M())
				}
				if retired == 0 {
					t.Errorf("%s %s x=%d seed=%d: the idle predicate never fired", name, v.variant, v.x, seed)
				}
				if want.M() == g.M() {
					t.Errorf("%s %s x=%d seed=%d: degenerate — nothing deleted", name, v.variant, v.x, seed)
				}
			}
		}
	}
}
