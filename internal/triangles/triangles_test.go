package triangles

import (
	"math"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// DiffGraphs hands diffGraphs to the external triangles_test package,
// where the tests against internal/oracle live (oracle imports this
// package, so they cannot be in-package).
var DiffGraphs = diffGraphs

func TestCountSmallKnown(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"triangle", gen.Complete(3), 1},
		{"K4", gen.Complete(4), 4},
		{"K5", gen.Complete(5), 10},
		{"K6", gen.Complete(6), 20},
		{"path", gen.Path(10), 0},
		{"cycle4", gen.Cycle(4), 0},
		{"star", gen.Star(20), 0},
		{"grid-diag", gen.Grid2D(3, 3, true), 8},
	}
	for _, c := range cases {
		if got := Count(c.g, 1); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
	}
}

// Reference O(n^3) counter for cross-checking.
func naiveCount(g *graph.Graph) int64 {
	var count int64
	n := graph.NodeID(g.N())
	for u := graph.NodeID(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				continue
			}
			for w := v + 1; w < n; w++ {
				if g.HasEdge(u, w) && g.HasEdge(v, w) {
					count++
				}
			}
		}
	}
	return count
}

func TestCountMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20
		edges := make([]graph.Edge, 60)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
		}
		g := graph.FromEdges(n, false, edges)
		return Count(g, 1) == naiveCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	seq := Count(g, 1)
	par := Count(g, 8)
	if seq != par {
		t.Fatalf("sequential %d != parallel %d", seq, par)
	}
}

func TestTriangleEdgesAreConsistent(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 5)
	for _, tr := range List(g) {
		// E[0]: V0-V1, E[1]: V0-V2, E[2]: V1-V2
		pairs := [3][2]graph.NodeID{
			{tr.V[0], tr.V[1]}, {tr.V[0], tr.V[2]}, {tr.V[1], tr.V[2]},
		}
		for i, p := range pairs {
			e, ok := g.FindEdge(p[0], p[1])
			if !ok {
				t.Fatalf("triangle %v: edge %v missing", tr.V, p)
			}
			if e != tr.E[i] {
				t.Fatalf("triangle %v: edge id %d, want %d", tr.V, tr.E[i], e)
			}
		}
	}
}

func TestEachTriangleOnce(t *testing.T) {
	g := gen.PlantedPartition(120, 12, 0.6, 40, 7)
	seen := map[[3]graph.NodeID]int{}
	for _, tr := range List(g) {
		v := tr.V
		// Normalize vertex order.
		if v[0] > v[1] {
			v[0], v[1] = v[1], v[0]
		}
		if v[1] > v[2] {
			v[1], v[2] = v[2], v[1]
		}
		if v[0] > v[1] {
			v[0], v[1] = v[1], v[0]
		}
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("triangle %v emitted %d times", v, c)
		}
	}
	if int64(len(seen)) != Count(g, 1) {
		t.Fatalf("distinct %d != count %d", len(seen), Count(g, 1))
	}
}

func TestPerVertexSumsToThreeT(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 11)
	pv := PerVertex(g, 4)
	var sum int64
	for _, c := range pv {
		sum += c
	}
	if want := 3 * Count(g, 1); sum != want {
		t.Fatalf("per-vertex sum %d, want %d", sum, want)
	}
}

func TestPerEdgeSumsToThreeT(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 13)
	pe := PerEdge(g, 4)
	var sum int64
	for _, c := range pe {
		sum += c
	}
	if want := 3 * Count(g, 1); sum != want {
		t.Fatalf("per-edge sum %d, want %d", sum, want)
	}
}

func TestAveragePerVertex(t *testing.T) {
	// K4: 4 triangles, each vertex in 3 of them -> average 3.
	if got := AveragePerVertex(gen.Complete(4), 1); got != 3 {
		t.Fatalf("K4 average = %v, want 3", got)
	}
}

func TestCountApproxNearExact(t *testing.T) {
	g := gen.PlantedPartition(400, 20, 0.5, 200, 17)
	exact := float64(Count(g, 4))
	est := CountApprox(g, 0.7, 42, 4)
	if exact == 0 {
		t.Skip("degenerate graph")
	}
	if math.Abs(est-exact)/exact > 0.35 {
		t.Fatalf("estimate %.0f too far from exact %.0f", est, exact)
	}
	// p = 1 must be exact.
	if got := CountApprox(g, 1, 1, 4); got != exact {
		t.Fatalf("p=1 estimate %v != exact %v", got, exact)
	}
}

// TestCountApproxDegenerateP: an empty sample estimates 0 — even when p is so
// small that p³ underflows and 0/p³ would be NaN — and NaN is not a
// probability (p <= 0 || p > 1 is false for it).
func TestCountApproxDegenerateP(t *testing.T) {
	g := gen.PlantedPartition(200, 20, 0.5, 100, 17)
	for _, p := range []float64{1e-300, math.SmallestNonzeroFloat64} {
		if est := CountApprox(g, p, 1, 2); est != 0 {
			t.Errorf("p=%g: estimate %v, want 0", p, est)
		}
	}
	for _, p := range []float64{math.NaN(), 0, -1, 1.5, math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v: no panic", p)
				}
			}()
			CountApprox(g, p, 1, 2)
		}()
	}
}

func TestDirectedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for directed graph")
		}
	}()
	Count(gen.RMATDirected(5, 4, 0.57, 0.19, 0.19, 1), 1)
}

func BenchmarkCountRMAT12(b *testing.B) {
	g := gen.RMAT(12, 16, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Count(g, 0)
	}
}

// naivePerElement is an O(n·d²) center-based reference: for every vertex u
// and neighbor pair (v, w) of u with the closing edge present, the triangle
// {u, v, w} contributes once to pv[u] and once to pe[closing edge].
func naivePerElement(g *graph.Graph) (pv, pe []int64) {
	pv = make([]int64, g.N())
	pe = make([]int64, g.M())
	for u := graph.NodeID(0); u < graph.NodeID(g.N()); u++ {
		nbrs := g.Neighbors(u)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if e, ok := g.FindEdge(nbrs[i], nbrs[j]); ok {
					pv[u]++
					pe[e]++
				}
			}
		}
	}
	return pv, pe
}

func int64sEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffGraphs is the graph spread the engine differential tests run over:
// skewed, community, clique (forces the galloping kernel), and randomized
// multigraph inputs.
func diffGraphs() map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"rmat":    gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3),
		"planted": gen.PlantedPartition(150, 12, 0.6, 60, 7),
		"clique":  gen.Complete(48),
		"ba":      gen.BarabasiAlbert(400, 6, 11),
		"empty":   gen.Path(1),
		"path":    gen.Path(50),
	}
	r := rng.New(99)
	edges := make([]graph.Edge, 400)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(60)), V: graph.NodeID(r.Intn(60)), W: 1}
	}
	gs["random"] = graph.FromEdges(60, false, edges)
	return gs
}

// Batched emission must not depend on the batch capacity: for capacities
// around one element and around the production 256, the concatenated batches
// are List() — itself pinned to the reference order above. The clique
// drives the intersection past the gallop cutoff (47-long against 1-long
// forward lists), so galloping and merging arms both emit into batches that
// fill mid-intersection.
func TestBatchedEmissionOrderAcrossCapacities(t *testing.T) {
	graphs := diffGraphs()
	for name, g := range graphs {
		en := NewEngine(g, 1)
		want := en.List()
		for _, capacity := range []int{1, 2, 255, 256} {
			var got []Triangle
			en.emitRange(0, g.M(), capacity, func(batch []Triangle) {
				if len(batch) == 0 || len(batch) > capacity {
					t.Fatalf("%s capacity %d: batch of %d", name, capacity, len(batch))
				}
				got = append(got, batch...)
			})
			if len(got) != len(want) {
				t.Fatalf("%s capacity %d: %d triangles, List has %d", name, capacity, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s capacity %d: triangle %d = %+v, List %+v", name, capacity, i, got[i], want[i])
				}
			}
		}
		// ForEachBatch at one worker is one range in the same order.
		i := 0
		en.ForEachBatch(func() func([]Triangle) {
			return func(batch []Triangle) {
				for _, tr := range batch {
					if i >= len(want) || tr != want[i] {
						t.Fatalf("%s: ForEachBatch triangle %d = %+v out of List order", name, i, tr)
					}
					i++
				}
			}
		})
		if i != len(want) {
			t.Fatalf("%s: ForEachBatch emitted %d triangles, List has %d", name, i, len(want))
		}
	}
}

// The counting merge (branch-free in its balanced arm) and the emitting
// merge must agree on random sorted lists: empty, disjoint, identical, and
// length ratios on both sides of the gallop cutoff.
func TestIntersectCountMatchesEmit(t *testing.T) {
	r := rng.New(5)
	sorted := func(n, universe int) []graph.NodeID {
		seen := map[int]bool{}
		for len(seen) < n {
			seen[r.Intn(universe)] = true
		}
		out := make([]graph.NodeID, 0, n)
		for v := 0; v < universe; v++ {
			if seen[v] {
				out = append(out, graph.NodeID(v))
			}
		}
		return out
	}
	emitted := func(an, bn []graph.NodeID) int64 {
		var n int64
		out := batcher{buf: make([]Triangle, 3), sink: func(batch []Triangle) { n += int64(len(batch)) }}
		ids := make([]graph.EdgeID, len(an)+len(bn))
		intersectEmit(an, ids[:len(an)], bn, ids[:len(bn)], 0, 0, 0, &out)
		out.flush()
		return n
	}
	check := func(name string, an, bn []graph.NodeID) {
		t.Helper()
		want := int64(len(mapIntersect(an, bn)))
		for _, pair := range [][2][]graph.NodeID{{an, bn}, {bn, an}} {
			if got := intersectCount(pair[0], pair[1]); got != want {
				t.Fatalf("%s (%d vs %d): intersectCount = %d, want %d", name, len(pair[0]), len(pair[1]), got, want)
			}
			if got := emitted(pair[0], pair[1]); got != want {
				t.Fatalf("%s (%d vs %d): intersectEmit pushed %d, want %d", name, len(pair[0]), len(pair[1]), got, want)
			}
		}
	}
	a := sorted(40, 200)
	check("empty", nil, a)
	check("identical", a, a)
	evens, odds := make([]graph.NodeID, 50), make([]graph.NodeID, 50)
	for i := range evens {
		evens[i], odds[i] = graph.NodeID(2*i), graph.NodeID(2*i+1)
	}
	check("disjoint", evens, odds)
	for trial := 0; trial < 50; trial++ {
		for _, ratio := range []int{1, 3, 15, 16, 17} {
			short := sorted(1+r.Intn(12), 400)
			check("ratio", short, sorted(ratio*len(short), 400))
		}
	}
}

func TestCountersWorkerIndependentAndMatchNaive(t *testing.T) {
	for name, g := range diffGraphs() {
		wantPV, wantPE := naivePerElement(g)
		var wantC int64
		for _, c := range wantPV {
			wantC += c
		}
		wantC /= 3
		for _, workers := range []int{1, 2, 8} {
			if got := Count(g, workers); got != wantC {
				t.Errorf("%s workers=%d: Count = %d, want %d", name, workers, got, wantC)
			}
			if got := PerVertex(g, workers); !int64sEqual(got, wantPV) {
				t.Errorf("%s workers=%d: PerVertex mismatch", name, workers)
			}
			if got := PerEdge(g, workers); !int64sEqual(got, wantPE) {
				t.Errorf("%s workers=%d: PerEdge mismatch", name, workers)
			}
		}
	}
}

func TestCliqueForcesGallop(t *testing.T) {
	// In K48 the rank order is the ID order, so edge (0, 46) intersects a
	// 47-long forward list against a 1-long one — past the gallop cutoff.
	g := gen.Complete(48)
	want := int64(48 * 47 * 46 / 6)
	if got := Count(g, 1); got != want {
		t.Fatalf("K48 Count = %d, want %d", got, want)
	}
	if got := len(List(g)); int64(got) != want {
		t.Fatalf("K48 List has %d triangles, want %d", got, want)
	}
}

// Map-based oracle for the intersection kernels.
func mapIntersect(a, b []graph.NodeID) []graph.NodeID {
	in := map[graph.NodeID]bool{}
	for _, x := range a {
		in[x] = true
	}
	var out []graph.NodeID
	for _, x := range b {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

func TestIntersectKernelsAdaptive(t *testing.T) {
	mk := func(vals ...int) ([]graph.NodeID, []graph.EdgeID) {
		ns := make([]graph.NodeID, len(vals))
		es := make([]graph.EdgeID, len(vals))
		for i, v := range vals {
			ns[i] = graph.NodeID(v)
			es[i] = graph.EdgeID(1000 + v)
		}
		return ns, es
	}
	long := make([]int, 0, 600)
	for v := 0; v < 1800; v += 3 {
		long = append(long, v)
	}
	cases := [][2][]int{
		{{}, {1, 2, 3}},
		{{1, 2, 3}, {}},
		{{1, 3, 5, 7}, {2, 3, 4, 7}},      // merge
		{long, {3, 599, 600, 1200, 1797}}, // gallop over first
		{{3, 599, 600, 1200, 1797}, long}, // gallop over second
		{long, {0}},
		{long, {1797}},
		{long, {1798}},
		{{5}, long},
	}
	for ci, c := range cases {
		an, ae := mk(c[0]...)
		bn, be := mk(c[1]...)
		want := mapIntersect(an, bn)

		var got []graph.NodeID
		out := batcher{buf: make([]Triangle, 2), sink: func(batch []Triangle) {
			for _, tr := range batch {
				w, ea, eb := tr.V[2], tr.E[1], tr.E[2]
				if ea != graph.EdgeID(1000+int(w)) || eb != graph.EdgeID(1000+int(w)) {
					t.Fatalf("case %d: wrong edge ids %d/%d for match %d", ci, ea, eb, w)
				}
				if tr.V[0] != 7 || tr.V[1] != 9 || tr.E[0] != 11 {
					t.Fatalf("case %d: triangle %v lost its discovering edge", ci, tr)
				}
				got = append(got, w)
			}
		}}
		intersectEmit(an, ae, bn, be, 7, 9, 11, &out)
		out.flush()
		if len(got) != len(want) {
			t.Fatalf("case %d: emit found %v, want %v", ci, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: emit order %v, want %v", ci, got, want)
			}
		}

		if got := intersectCount(an, bn); got != int64(len(want)) {
			t.Fatalf("case %d: count = %d, want %d", ci, got, len(want))
		}
	}
}

func TestGallopTo(t *testing.T) {
	a := []graph.NodeID{2, 4, 4, 8, 16, 32, 64}
	for _, c := range []struct {
		from, want int
		w          graph.NodeID
	}{
		{0, 0, 0}, {0, 0, 2}, {0, 1, 3}, {0, 1, 4}, {0, 3, 5},
		{0, 6, 64}, {0, 7, 65}, {3, 3, 2}, {3, 4, 10}, {7, 7, 1},
	} {
		if got := gallopTo(a, c.from, c.w); got != c.want {
			t.Errorf("gallopTo(from=%d, w=%d) = %d, want %d", c.from, c.w, got, c.want)
		}
	}
}
