package experiments

import (
	"time"

	"slimgraph/internal/core"
	"slimgraph/internal/gen"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

// TriangleBench measures the oriented triangle engine against the preserved
// pre-engine enumeration on an R-MAT graph: exact counting and per-edge
// counting (the CT variant's input), plus the time of a full basic-TR kernel
// run on the engine. This is the hot path of every Triangle Reduction variant
// and of the Table 2 / Table 3 / Figure 5 drivers — the O(m^{3/2}) bound is
// unchanged, the constant factors (forward-truncated lists, precomputed rank
// keys, per-worker accumulators, cost-balanced scheduling) are what moves.
func TriangleBench(cfg Config) *Table {
	t := &Table{
		ID:    "triangles",
		Title: "triangle engine: rank-oriented forward CSR vs pre-engine reference",
		Note: "TR is the paper's novel compression class (§4.3); its cost model is " +
			"the O(m^{3/2}) triangle enumeration of Table 2",
		Header: []string{"operation", "path", "time", "speedup"},
	}
	g := gen.RMAT(cfg.rmatScale(12), 16, 0.57, 0.19, 0.19, cfg.seed()+77)
	w := cfg.Workers

	refCount := measure(func() { triangles.ReferenceCount(g, w) })
	engCount := measure(func() { triangles.Count(g, w) })
	refPerEdge := measure(func() { triangles.ReferencePerEdge(g, w) })
	engPerEdge := measure(func() { triangles.PerEdge(g, w) })
	kernel := func(sg *core.SG, r *rng.Rand, tr core.TriangleView) {
		if r.Float64() < 0.5 {
			sg.Del(tr.E[r.Intn(3)])
		}
	}
	engKernel := measure(func() { core.New(g, 1, w).RunTriangleKernel(kernel) })

	speed := func(ref, got time.Duration) string {
		if got <= 0 {
			return "-"
		}
		return f1(ref.Seconds()/got.Seconds()) + "x"
	}
	t.AddRow("count n="+itoa(g.N())+" m="+itoa(g.M()), "reference (full-adjacency merge)", refCount.String(), "1.0x")
	t.AddRow("count", "engine (oriented forward CSR)", engCount.String(), speed(refCount, engCount))
	t.AddRow("per-edge counts", "reference (atomic adds)", refPerEdge.String(), "1.0x")
	t.AddRow("per-edge counts", "engine (worker accumulators)", engPerEdge.String(), speed(refPerEdge, engPerEdge))
	t.AddRow("basic TR kernel p=0.5", "engine", engKernel.String(), "-")
	return t
}
