package core

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/oracle"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

func TestEdgeKernelVisitsEveryEdgeOnce(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 1)
	sg := New(g, 1, 4)
	visits := make([]int32, g.M())
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		// Atomicity not needed: each edge visited by exactly one instance,
		// but use the deletion bitset to double as a visit check.
		if sg.Deleted(e.ID) {
			t.Error("edge visited twice")
		}
		sg.Del(e.ID)
		visits[e.ID]++
	})
	for e, v := range visits {
		if v != 1 {
			t.Fatalf("edge %d visited %d times", e, v)
		}
	}
}

func TestEdgeViewFields(t *testing.T) {
	g := graph.FromWeightedEdges(3, false, []graph.Edge{
		graph.WE(0, 1, 2.5), graph.WE(1, 2, 1.5),
	})
	sg := New(g, 1, 1)
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		u, v := g.EdgeEndpoints(e.ID)
		if e.U != u || e.V != v {
			t.Errorf("edge %d endpoints (%d,%d), want (%d,%d)", e.ID, e.U, e.V, u, v)
		}
		if e.DegU != g.Degree(u) || e.DegV != g.Degree(v) {
			t.Errorf("edge %d degrees wrong", e.ID)
		}
		if e.Weight != g.EdgeWeight(e.ID) {
			t.Errorf("edge %d weight %v", e.ID, e.Weight)
		}
	})
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	run := func(workers int) *graph.Graph {
		sg := New(g, 42, workers)
		sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
			if r.Float64() < 0.5 {
				sg.Del(e.ID)
			}
		})
		return sg.Materialize()
	}
	a, b := run(1), run(8)
	if a.M() != b.M() {
		t.Fatalf("workers=1 left %d edges, workers=8 left %d", a.M(), b.M())
	}
	for e := 0; e < a.M(); e++ {
		au, av := a.EdgeEndpoints(graph.EdgeID(e))
		bu, bv := b.EdgeEndpoints(graph.EdgeID(e))
		if au != bu || av != bv {
			t.Fatal("different edges survived under different worker counts")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	run := func(seed uint64) int {
		sg := New(g, seed, 4)
		sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
			if r.Float64() < 0.5 {
				sg.Del(e.ID)
			}
		})
		return sg.Materialize().M()
	}
	if run(1) == run(2) && run(3) == run(4) && run(1) == run(3) {
		t.Fatal("suspiciously identical results across seeds")
	}
}

func TestVertexKernelDeletion(t *testing.T) {
	g := gen.Star(10)
	sg := New(g, 1, 2)
	sg.RunVertexKernel(func(sg *SG, r *rng.Rand, v VertexView) {
		if v.Deg <= 1 {
			sg.DelVertex(v.ID)
		}
	})
	if got := sg.DeletedVertexCount(); got != 9 {
		t.Fatalf("deleted %d vertices, want 9 leaves", got)
	}
	h := sg.Materialize()
	if h.N() != g.N() {
		t.Fatal("vertex set must be preserved by materialization")
	}
	if h.M() != 0 {
		t.Fatalf("m = %d, want 0 (all edges touched a leaf)", h.M())
	}
}

func TestTriangleKernelSeesAllTriangles(t *testing.T) {
	g := gen.Complete(6) // 20 triangles
	sg := New(g, 1, 4)
	var count int32
	sg.RunTriangleKernel(func(sg *SG, r *rng.Rand, tr TriangleView) {
		// Verify edge/weight consistency.
		for i, e := range tr.E {
			if tr.Weights[i] != g.EdgeWeight(e) {
				t.Error("weight mismatch")
			}
		}
		atomic.AddInt32(&count, 1)
	})
	if count != 20 {
		t.Fatalf("saw %d triangles, want 20", count)
	}
}

func TestSetWeightMaterializes(t *testing.T) {
	g := gen.Cycle(10)
	sg := New(g, 1, 1)
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		sg.SetWeight(e.ID, 7)
	})
	h := sg.Materialize()
	if !h.Weighted() {
		t.Fatal("not weighted after SetWeight")
	}
	for e := 0; e < h.M(); e++ {
		if h.EdgeWeight(graph.EdgeID(e)) != 7 {
			t.Fatalf("weight %v", h.EdgeWeight(graph.EdgeID(e)))
		}
	}
}

// A kernel may assign weight 0: set-ness is tracked apart from the value, so
// the zero materializes instead of the original weight, and edges the kernel
// left alone keep theirs.
func TestSetWeightZeroMaterializes(t *testing.T) {
	g := gen.WithUniformWeights(gen.Cycle(10), 1, 5, 3)
	sg := New(g, 1, 2)
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		if e.ID%2 == 0 {
			sg.SetWeight(e.ID, 0)
		}
	})
	h := sg.Materialize()
	for e := 0; e < h.M(); e++ {
		want := g.EdgeWeight(graph.EdgeID(e))
		if e%2 == 0 {
			want = 0
		}
		if got := h.EdgeWeight(graph.EdgeID(e)); got != want {
			t.Fatalf("edge %d: weight %v, want %v", e, got, want)
		}
	}
}

// The weight column exists only once a kernel reweights: a deleting kernel
// leaves it unallocated.
func TestWeightColumnAllocatedOnFirstSetWeight(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 2)
	sg := New(g, 1, 2)
	sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
		if r.Float64() < 0.5 {
			sg.Del(e.ID)
		}
	})
	sg.Materialize()
	if sg.weightBits != nil || sg.weightSet != nil {
		t.Fatal("a kernel that never reweights allocated the weight column")
	}
	sg.SetWeight(0, 2)
	if len(sg.weightBits) != g.M() {
		t.Fatalf("weight column has %d entries after SetWeight, want %d", len(sg.weightBits), g.M())
	}
}

func TestNoChangesMaterializesIdentical(t *testing.T) {
	g := gen.ErdosRenyi(100, 300, 2)
	sg := New(g, 1, 2)
	h := sg.Materialize()
	if h.M() != g.M() || h.N() != g.N() || h.Weighted() != g.Weighted() {
		t.Fatal("identity materialization changed the graph")
	}
}

func TestConsiderOnceProtocol(t *testing.T) {
	g := gen.Cycle(5)
	sg := New(g, 1, 1)
	if sg.ConsiderOnce(0) {
		t.Fatal("first ConsiderOnce returned alreadyConsidered")
	}
	if !sg.ConsiderOnce(0) {
		t.Fatal("second ConsiderOnce returned fresh")
	}
	sg.MarkConsidered(2)
	if !sg.WasConsidered(2) || sg.WasConsidered(1) {
		t.Fatal("MarkConsidered/WasConsidered inconsistent")
	}
}

func TestSubgraphKernelPartition(t *testing.T) {
	g := gen.Grid2D(6, 6, false)
	// Map vertices into 4 stripes.
	mapping := make([]int32, g.N())
	for v := range mapping {
		mapping[v] = int32(v % 4)
	}
	var total int32
	sg := New(g, 1, 2)
	sg.RunSubgraphKernel(mapping, 4, func(sg *SG, r *rng.Rand, s SubgraphView) {
		for _, v := range s.Members {
			if s.Of[v] != s.Index {
				t.Error("member not mapped to its subgraph")
			}
		}
		if s.Count != 4 {
			t.Error("wrong subgraph count")
		}
		atomic.AddInt32(&total, int32(len(s.Members)))
	})
	if int(total) != g.N() {
		t.Fatalf("kernels saw %d members, want %d", total, g.N())
	}
}

// Property: a kernel deleting each edge with probability p leaves about
// (1-p)m edges (binomial concentration).
func TestUniformDeletionConcentrationProperty(t *testing.T) {
	g := gen.ErdosRenyi(500, 5000, 9)
	f := func(seed uint64) bool {
		sg := New(g, seed, 4)
		p := 0.3
		sg.RunEdgeKernel(func(sg *SG, r *rng.Rand, e EdgeView) {
			if r.Float64() < p {
				sg.Del(e.ID)
			}
		})
		remaining := sg.Materialize().M()
		expected := float64(g.M()) * (1 - p)
		diff := float64(remaining) - expected
		if diff < 0 {
			diff = -diff
		}
		return diff < 0.1*float64(g.M())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// referenceRunTriangleKernel is the oracle for RunTriangleKernelOn: the
// preserved pre-engine enumeration (oracle.ReferenceForEach) driving the
// kernel straight-line — a fresh generator per triangle from rng.New, no
// idle predicate, no batching — with the same per-triangle PRNG keying.
func referenceRunTriangleKernel(sg *SG, k TriangleKernel) {
	g := sg.in.(*graph.Graph)
	oracle.ReferenceForEach(g, sg.workers, func(t triangles.Triangle) {
		view := TriangleView{V: t.V, E: t.E}
		for i, e := range t.E {
			view.Weights[i] = g.EdgeWeight(e)
		}
		key := rng.Hash64(uint64(t.E[0]), rng.Hash64(uint64(t.E[1]), uint64(t.E[2])))
		k(sg, rng.New(rng.Hash64(sg.seed^kindTriangle, key)), view)
	})
}

// TestTriangleKernelDeletionsMatchReference pins the engine rewrite to the
// pre-engine behaviour: for a deletion kernel the SG deletion marks are
// identical whether triangles come from the Engine or from the reference
// path. Order-independent kernels (PRNG keyed by edge IDs) must match at
// any worker count; order-dependent Edge-Once kernels must match in the
// sequential engine mode, whose enumeration order is the reference order.
// The guarded cases run the engine with the kernel's idle predicate against
// the unguarded reference: retiring idle instances must not move a single
// deletion, and the predicate must actually fire.
func TestTriangleKernelDeletionsMatchReference(t *testing.T) {
	g := gen.PlantedPartition(200, 15, 0.55, 120, 23)
	basicKernel := func(sg *SG, r *rng.Rand, tr TriangleView) {
		if r.Float64() < 0.5 {
			sg.Del(tr.E[r.Intn(3)])
		}
	}
	eoKernel := func(sg *SG, r *rng.Rand, tr TriangleView) {
		if r.Float64() >= 0.7 {
			return
		}
		chosen := r.Intn(3)
		if !sg.ConsiderOnce(tr.E[chosen]) {
			sg.Del(tr.E[chosen])
		}
		sg.MarkConsidered(tr.E[(chosen+1)%3])
		sg.MarkConsidered(tr.E[(chosen+2)%3])
	}
	deletions := func(sg *SG) []graph.EdgeID {
		var out []graph.EdgeID
		for e := 0; e < g.M(); e++ {
			if sg.Deleted(graph.EdgeID(e)) {
				out = append(out, graph.EdgeID(e))
			}
		}
		return out
	}
	allDeleted := func(sg *SG) TriangleIdle {
		return func(e [3]graph.EdgeID) bool {
			return sg.Deleted(e[0]) && sg.Deleted(e[1]) && sg.Deleted(e[2])
		}
	}
	allConsidered := func(sg *SG) TriangleIdle {
		return func(e [3]graph.EdgeID) bool {
			return sg.WasConsidered(e[0]) && sg.WasConsidered(e[1]) && sg.WasConsidered(e[2])
		}
	}
	cases := []struct {
		name    string
		kernel  TriangleKernel
		idle    func(sg *SG) TriangleIdle // nil: unguarded
		workers []int
	}{
		{"basic", basicKernel, nil, []int{1, 8}}, // schedule-independent: any worker count
		{"edge-once", eoKernel, nil, []int{1}},   // order-dependent: sequential contract
		{"basic guarded", basicKernel, allDeleted, []int{1, 8}},
		{"edge-once guarded", eoKernel, allConsidered, []int{1}},
	}
	for _, c := range cases {
		for _, workers := range c.workers {
			engineSG := New(g, 42, workers)
			var idle TriangleIdle
			var retired int64
			if c.idle != nil {
				inner := c.idle(engineSG)
				idle = func(e [3]graph.EdgeID) bool {
					if inner(e) {
						atomic.AddInt64(&retired, 1)
						return true
					}
					return false
				}
			}
			engineSG.RunTriangleKernelOn(triangles.NewEngine(g, workers), c.kernel, idle)
			if c.idle != nil && retired == 0 {
				t.Fatalf("%s workers=%d: the idle predicate never fired", c.name, workers)
			}
			refSG := New(g, 42, workers)
			referenceRunTriangleKernel(refSG, c.kernel)
			got, want := deletions(engineSG), deletions(refSG)
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d deletions, reference %d", c.name, workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d: deletion set diverges at %d: %d vs %d",
						c.name, workers, i, got[i], want[i])
				}
			}
			if len(got) == 0 {
				t.Fatalf("%s: degenerate test — no deletions", c.name)
			}
		}
	}
}

func TestRunTriangleKernelOnWrongGraphPanics(t *testing.T) {
	g := gen.Complete(5)
	other := gen.Complete(6)
	sg := New(g, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for engine built on a different graph")
		}
	}()
	sg.RunTriangleKernelOn(triangles.NewEngine(other, 1), func(*SG, *rng.Rand, TriangleView) {}, nil)
}
