package triangles

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
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

// sinkCount keeps the measured calls of the benchmarks alive.
var sinkCount int64

// BenchmarkCountRMAT12 runs both consumers of the marked-scan kernel on one
// prebuilt engine: the counting scan and batched emission. An Engine's
// embedded Forward keeps plain lists — emission needs an EdgeID per entry —
// so its count runs the loop without hub rows; BenchmarkForward times the
// substrate that has them.
func BenchmarkCountRMAT12(b *testing.B) {
	en := NewEngine(gen.RMAT(12, 16, 0.57, 0.19, 0.19, 1), 0)
	b.Run("count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkCount = en.Count()
		}
	})
	b.Run("emit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var n int64
			sink := func(batch []Triangle) { atomic.AddInt64(&n, int64(len(batch))) }
			en.ForEachBatch(func() func([]Triangle) { return sink })
			sinkCount = n
		}
	})
}

// BenchmarkForward times the count-only substrate at one worker, its build
// and a count on the built Forward, on a skewed graph, whose top-ranked
// vertices become hub rows, and on a grid, which chooses none.
func BenchmarkForward(b *testing.B) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat12", gen.RMAT(12, 16, 0.57, 0.19, 0.19, 1)},
		{"grid64", gen.Grid2D(64, 64, true)},
	}
	for _, c := range graphs {
		f := NewForward(c.g, 1)
		b.Run(c.name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkCount = NewForward(c.g, 1).SizeBytes()
			}
		})
		b.Run(c.name+"/count", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkCount = f.Count()
			}
		})
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
// skewed, community, clique (47-long forward lists scanned against 1-long
// ones and back), a star of cliques and two adjacent hubs (runs of one lower
// endpoint hundreds of edges long, stamped lists from empty to clique-sized),
// and randomized multigraph inputs.
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

	// Vertex 0 is adjacent to every member of eight 9-cliques.
	var star []graph.Edge
	for c := 0; c < 8; c++ {
		for i := 1 + 9*c; i < 10+9*c; i++ {
			star = append(star, graph.Edge{U: 0, V: graph.NodeID(i), W: 1})
			for j := i + 1; j < 10+9*c; j++ {
				star = append(star, graph.Edge{U: graph.NodeID(i), V: graph.NodeID(j), W: 1})
			}
		}
	}
	gs["star-of-cliques"] = graph.FromEdges(73, false, star)

	// Hubs 0 and 199 are adjacent, share 120 neighbours (a ring, so the shared
	// neighbours close triangles among themselves too) and own 40 each.
	hubs := []graph.Edge{{U: 0, V: 199, W: 1}}
	for v := 1; v <= 160; v++ {
		hubs = append(hubs, graph.Edge{U: 0, V: graph.NodeID(v), W: 1})
	}
	for v := 41; v <= 198; v++ {
		hubs = append(hubs, graph.Edge{U: 199, V: graph.NodeID(v), W: 1})
	}
	for v := 41; v < 160; v++ {
		hubs = append(hubs, graph.Edge{U: graph.NodeID(v), V: graph.NodeID(v + 1), W: 1})
	}
	gs["two-hub"] = graph.FromEdges(200, false, hubs)
	return gs
}

// Batched emission must not depend on the batch capacity: for capacities
// around one element and around the production 256, the concatenated batches
// are List() — itself pinned to the reference order above. The clique
// scans 1-long forward lists against 47 stamps and 47-long ones against one,
// so batches fill mid-scan.
func TestBatchedEmissionOrderAcrossCapacities(t *testing.T) {
	graphs := diffGraphs()
	for name, g := range graphs {
		en := NewEngine(g, 1)
		want := en.List()
		for _, capacity := range []int{1, 2, 255, 256} {
			var got []Triangle
			en.emitRange(0, g.M(), en.newEmitter(capacity), func(batch []Triangle) {
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

// pairEngine is the smallest engine whose kernel intersects the ID-sorted
// lists (an, ae) and (bn, be): vertices a < b beyond every list value with
// F(a) = an and F(b) = bn, and the canonical edge (a, b) repeated run times,
// so a range starting past index 0 starts inside a run sharing one a. swap
// ranks b below a. The pair's own edge is listed at its rank-lower end,
// behind every list value, so the embedded Forward counts an ∩ bn at that
// vertex while emission, which never scans a list against itself, cannot
// match it.
func pairEngine(an []graph.NodeID, ae []graph.EdgeID, bn []graph.NodeID, be []graph.EdgeID, run int, swap bool) (en *Engine, a, b graph.NodeID) {
	for _, w := range append(append([]graph.NodeID{}, an...), bn...) {
		if w >= a {
			a = w + 1
		}
	}
	b = a + 1
	en = &Engine{key: make([]uint64, b+1), Forward: Forward{off: make([]int64, b+2)}}
	an, ae, bn, be = slices.Clone(an), slices.Clone(ae), slices.Clone(bn), slices.Clone(be)
	en.key[a], en.key[b] = 1, 2
	if swap {
		en.key[a], en.key[b] = 2, 1
		bn, be = append(bn, a), append(be, 0)
	} else {
		an, ae = append(an, b), append(ae, 0)
	}
	en.off[b], en.off[b+1] = int64(len(an)), int64(len(an)+len(bn))
	en.nbr = append(an, bn...)
	en.eid = append(ae, be...)
	for i := 0; i < run; i++ {
		en.eu, en.ev = append(en.eu, a), append(en.ev, b)
	}
	return en, a, b
}

// The Forward's counting scan and the Engine's emitting scan must agree on
// the same random sorted lists: empty, disjoint, identical, and length
// ratios up to 17:1 either way round, under both rank orders of the pair.
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
	check := func(name string, an, bn []graph.NodeID) {
		t.Helper()
		want := int64(len(mapIntersect(an, bn)))
		ids := make([]graph.EdgeID, len(an)+len(bn))
		for _, pair := range [][2][]graph.NodeID{{an, bn}, {bn, an}} {
			for _, swap := range []bool{false, true} {
				en, _, _ := pairEngine(pair[0], ids[:len(pair[0])], pair[1], ids[:len(pair[1])], 1, swap)
				if got := en.countRange(0, len(en.off)-1, make([]uint8, len(en.key))); got != want {
					t.Fatalf("%s (%d vs %d, swap %v): Forward counts %d, want %d", name, len(pair[0]), len(pair[1]), swap, got, want)
				}
				var got int64
				en.emitRange(0, 1, en.newEmitter(3), func(batch []Triangle) { got += int64(len(batch)) })
				if got != want {
					t.Fatalf("%s (%d vs %d, swap %v): emitRange pushed %d, want %d", name, len(pair[0]), len(pair[1]), swap, got, want)
				}
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
	// In K48 the rank order is the ID order, so edge (0, 46) scans a 1-long
	// forward list against 47 stamps and edge (45, 46) the reverse — the
	// length skew the name remembers the galloping arm for.
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

// TestIntersectKernelsAdaptive drives the kernel over hand-picked list pairs
// — empty either side, interleaved, 600-long against a handful and against a
// single hit, miss or out-of-range value — from a range that starts in the
// middle of a run (edge 11 of 12 sharing one a), under both rank orders of
// the discovering edge: matches arrive in ID order with the edge IDs of their
// own lists, and V/E are ordered by rank. The Forward counts the same matches
// at the rank-lower vertex of the pair, and nowhere else.
func TestIntersectKernelsAdaptive(t *testing.T) {
	mk := func(base int, vals ...int) ([]graph.NodeID, []graph.EdgeID) {
		ns := make([]graph.NodeID, len(vals))
		es := make([]graph.EdgeID, len(vals))
		for i, v := range vals {
			ns[i] = graph.NodeID(v)
			es[i] = graph.EdgeID(base + v)
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
		{{1, 3, 5, 7}, {2, 3, 4, 7}},
		{long, {3, 599, 600, 1200, 1797}},
		{{3, 599, 600, 1200, 1797}, long},
		{long, {0}},
		{long, {1797}},
		{long, {1798}},
		{{5}, long},
	}
	for ci, c := range cases {
		an, ae := mk(10000, c[0]...)
		bn, be := mk(20000, c[1]...)
		want := mapIntersect(an, bn)
		for _, swap := range []bool{false, true} {
			en, a, b := pairEngine(an, ae, bn, be, 12, swap)
			lowE, highE := 10000, 20000 // edge-ID bases of the rank-lower and rank-higher endpoint
			if swap {
				a, b, lowE, highE = b, a, highE, lowE
			}
			var got []graph.NodeID
			out := en.newEmitter(2)
			en.emitRange(11, 12, out, func(batch []Triangle) {
				for _, tr := range batch {
					w := tr.V[2]
					if tr.E[1] != graph.EdgeID(lowE+int(w)) || tr.E[2] != graph.EdgeID(highE+int(w)) {
						t.Fatalf("case %d swap %v: wrong edge ids %d/%d for match %d", ci, swap, tr.E[1], tr.E[2], w)
					}
					if tr.V[0] != a || tr.V[1] != b || tr.E[0] != 11 {
						t.Fatalf("case %d swap %v: triangle %v lost its discovering edge", ci, swap, tr)
					}
					got = append(got, w)
				}
			})
			if len(got) != len(want) {
				t.Fatalf("case %d swap %v: emit found %v, want %v", ci, swap, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d swap %v: emit order %v, want %v", ci, swap, got, want)
				}
			}
			stamp := make([]uint8, len(en.key))
			if got := en.countRange(int(a), int(a)+1, stamp); got != int64(len(want)) {
				t.Fatalf("case %d swap %v: count at the rank-lower vertex = %d, want %d", ci, swap, got, len(want))
			}
			if got := en.countRange(0, len(en.off)-1, stamp); got != int64(len(want)) {
				t.Fatalf("case %d swap %v: count over every vertex = %d, want %d", ci, swap, got, len(want))
			}
		}
	}
}

// TestMarksStayZeroBetweenRanges: the Forward's byte stamps and the
// Engine's emission marks, each carried across ranges interleaved with the
// other's — emission cuts landing inside runs — are all-zero whenever a
// range returns, and the ranges still add up.
func TestMarksStayZeroBetweenRanges(t *testing.T) {
	graphs := diffGraphs()
	f1, en2 := NewForward(graphs["two-hub"], 1), NewEngine(graphs["clique"], 1)
	n := len(f1.off) - 1
	stamp, out := make([]uint8, n), en2.newEmitter(batchCap)
	clean := func(when string) {
		t.Helper()
		for v, s := range stamp {
			if s != 0 {
				t.Fatalf("%s: count stamp[%d] = %d left behind", when, v, s)
			}
		}
		for v, s := range out.stamp {
			if s != 0 {
				t.Fatalf("%s: emission stamp[%d] = %d left behind", when, v, s)
			}
		}
	}
	var got1, got2 int64
	const parts = 9
	for i := 0; i < parts; i++ {
		got1 += f1.countRange(n*i/parts, n*(i+1)/parts, stamp)
		clean("after a count range")
		lo, hi := en2.g.M()*i/parts, en2.g.M()*(i+1)/parts
		en2.emitRange(lo, hi, out, func(batch []Triangle) { got2 += int64(len(batch)) })
		clean("after an emission range")
	}
	if want := f1.Count(); got1 != want {
		t.Fatalf("two-hub: ranges count %d, Count %d", got1, want)
	}
	if want := en2.Count(); got2 != want {
		t.Fatalf("clique: ranges emit %d, Count %d", got2, want)
	}
}

// forwardSet returns F(v) as f stores it, one ID-sorted list: v's list and
// the hubs of its row, mapped through the hub table.
func forwardSet(f *Forward, v int) []graph.NodeID {
	set := slices.Clone(f.nbr[f.off[v]:f.off[v+1]])
	for i, x := range f.row(v) {
		for ; x != 0; x &= x - 1 {
			set = append(set, f.hub[i<<6|bits.TrailingZeros64(x)])
		}
	}
	slices.Sort(set)
	return set
}

// TestForwardMatchesEngine pins the two builds of one forward CSR to each
// other: NewEngine's edge scatter, which keeps plain lists, and NewForward's
// filtered list scan, which splits off hub rows, yield the same logical
// forward sets (forwardSet) on every differential graph, raw, packed and
// degree-relabeled packed, at every worker count. Only where NewForward
// chose no hubs is the layout one and the same, so only there are offsets,
// lists and work prefix compared too (with hubs the prefix charges row
// words).
func TestForwardMatchesEngine(t *testing.T) {
	for name, g := range diffGraphs() {
		byDegree, err := g.Permute(succinct.ComputeOrder(g, succinct.OrderDegree, 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		forms := map[string]graph.AdjacencyEdges{
			"raw":         g,
			"packed":      succinct.Pack(g, 1),
			"packed-degr": succinct.Pack(byDegree, 1),
		}
		for form, a := range forms {
			for _, workers := range []int{1, 2, 7} {
				en, f := NewEngine(a, workers), NewForward(a, workers)
				for v := 0; v < a.N(); v++ {
					if got := forwardSet(f, v); !slices.Equal(got, en.nbr[en.off[v]:en.off[v+1]]) {
						t.Fatalf("%s/%s workers %d: F(%d) = %v, the engine's %v", name, form, workers, v, got, en.nbr[en.off[v]:en.off[v+1]])
					}
				}
				if f.words == 0 && (!slices.Equal(en.off, f.off) || !slices.Equal(en.nbr, f.nbr) || !slices.Equal(en.work, f.work)) {
					t.Fatalf("%s/%s workers %d: NewEngine and NewForward build different hub-free forward CSRs", name, form, workers)
				}
			}
		}
	}
}

// TestForwardHubPath runs the hub rows on graphs large enough to choose
// hubs, raw, packed and memory-mapped, at every worker count: the count is
// the engine's emission count, the parts of every cut tile it, the hub set
// is one for every form and worker count, and the arena stays within the
// hub-free 16(n+1) + 4m.
func TestForwardHubPath(t *testing.T) {
	dir := t.TempDir()
	for _, scale := range []int{12, 13} {
		g := gen.RMAT(scale, 16, 0.57, 0.19, 0.19, 1)
		var want int64
		NewEngine(g, 1).ForEachBatch(func() func([]Triangle) {
			return func(batch []Triangle) { want += int64(len(batch)) }
		})
		pg := succinct.Pack(g, 1)
		path := filepath.Join(dir, fmt.Sprintf("rmat%d.slim", scale))
		file, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := succinct.WriteServable(file, pg); err != nil {
			t.Fatal(err)
		}
		if err := file.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := succinct.OpenPacked(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		hubs := NewForward(g, 1).hub
		if len(hubs) == 0 {
			t.Fatalf("rmat%d: no hubs chosen", scale)
		}
		bound := 16*int64(g.N()+1) + 4*int64(g.M())
		forms := map[string]graph.AdjacencyEdges{"raw": g, "packed": pg, "mapped": m}
		for form, a := range forms {
			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("rmat%d/%s workers %d", scale, form, workers)
				f := NewForward(a, workers)
				if f.words == 0 {
					t.Fatalf("%s: no hub rows", name)
				}
				if !slices.Equal(f.hub, hubs) {
					t.Fatalf("%s: hubs %v, the one-worker raw build's %v", name, f.hub, hubs)
				}
				if size := f.SizeBytes(); size > bound {
					t.Fatalf("%s: SizeBytes %d over the hub-free %d", name, size, bound)
				}
				if got := f.Count(); got != want {
					t.Fatalf("%s: Count %d, engine emits %d", name, got, want)
				}
				for of := 1; of <= 5; of++ {
					var sum int64
					for i := 0; i < of; i++ {
						sum += CountSlice(f, i, of)
					}
					if sum != want {
						t.Fatalf("%s: %d parts sum to %d, want %d", name, of, sum, want)
					}
				}
			}
		}
	}
}
