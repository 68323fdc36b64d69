package graph

// Differential tests: every rebuild-free construction path (parallel
// counting-sort build, sorted-canonical scatter, the kept-column filter)
// must produce graphs bit-identical to the serial sort-based
// ReferenceBuild, over randomized directed/undirected × weighted/unweighted
// inputs, and must be invariant under the worker count.

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"slimgraph/internal/rng"
)

type buildCase struct {
	directed bool
	weighted bool
}

func buildCases() []buildCase {
	return []buildCase{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
}

func (c buildCase) String() string {
	return fmt.Sprintf("directed=%v,weighted=%v", c.directed, c.weighted)
}

// randomEdges draws m random edges over n vertices, including self-loops
// and duplicates so normalization and dedup paths are exercised.
func randomEdges(r *rng.Rand, n, m int, weighted bool) []Edge {
	edges := make([]Edge, m)
	for i := range edges {
		w := 1.0
		if weighted {
			w = float64(r.Intn(16)) / 4
		}
		edges[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: w}
	}
	return edges
}

func buildBoth(t *testing.T, c buildCase, n int, edges []Edge) (got, want *Graph) {
	t.Helper()
	if c.weighted {
		got = FromWeightedEdges(n, c.directed, edges)
	} else {
		got = FromEdges(n, c.directed, edges)
	}
	want = ReferenceBuild(n, c.directed, c.weighted, edges)
	return got, want
}

func TestBuildMatchesReference(t *testing.T) {
	for _, c := range buildCases() {
		r := rng.New(42)
		for trial := 0; trial < 20; trial++ {
			n := r.Intn(60) + 2
			m := r.Intn(400)
			edges := randomEdges(r, n, m, c.weighted)
			got, want := buildBoth(t, c, n, edges)
			if err := got.Validate(); err != nil {
				t.Fatalf("%v trial %d: %v", c, trial, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%v trial %d: parallel build differs from reference (n=%d m=%d)",
					c, trial, n, m)
			}
		}
	}
}

func TestFilterEdgesMatchesReference(t *testing.T) {
	for _, c := range buildCases() {
		r := rng.New(7)
		for trial := 0; trial < 12; trial++ {
			n := r.Intn(50) + 2
			g, _ := buildBoth(t, c, n, randomEdges(r, n, r.Intn(300), c.weighted))
			keep := make([]bool, g.M())
			var kept []Edge
			for e := 0; e < g.M(); e++ {
				if r.Bernoulli(0.6) {
					keep[e] = true
					kept = append(kept, Edge{U: g.edgeU[e], V: g.edgeV[e], W: g.EdgeWeight(EdgeID(e))})
				}
			}
			got := filterBy(g, func(e EdgeID) bool { return keep[e] }, nil)
			if err := got.Validate(); err != nil {
				t.Fatalf("%v trial %d: %v", c, trial, err)
			}
			want := ReferenceBuild(n, c.directed, c.weighted, kept)
			if !got.Equal(want) {
				t.Fatalf("%v trial %d: filter differs from sort-based rebuild", c, trial)
			}
		}
	}
}

func TestContractMatchesReference(t *testing.T) {
	for _, c := range buildCases() {
		r := rng.New(17)
		for trial := 0; trial < 12; trial++ {
			n := r.Intn(50) + 2
			g, _ := buildBoth(t, c, n, randomEdges(r, n, r.Intn(300), c.weighted))
			mapping := make([]NodeID, n)
			for v := range mapping {
				mapping[v] = NodeID(r.Intn(n))
			}
			got, remap := g.Contract(mapping)
			if err := got.Validate(); err != nil {
				t.Fatalf("%v trial %d: %v", c, trial, err)
			}
			var contracted []Edge
			for e := 0; e < g.M(); e++ {
				u, v := remap[g.edgeU[e]], remap[g.edgeV[e]]
				contracted = append(contracted, Edge{U: u, V: v, W: g.EdgeWeight(EdgeID(e))})
			}
			want := ReferenceBuild(got.N(), c.directed, c.weighted, contracted)
			if !got.Equal(want) {
				t.Fatalf("%v trial %d: Contract differs from sort-based rebuild", c, trial)
			}
		}
	}
}

// Construction must be bit-identical across worker counts (the engine's
// reproducibility contract). Varying GOMAXPROCS changes the block counts of
// every parallel primitive underneath.
func TestBuildWorkerIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(23)
	const n = 200
	edges := randomEdges(r, n, 3000, true)
	runtime.GOMAXPROCS(1)
	base := FromWeightedEdges(n, false, edges)
	baseDir := FromWeightedEdges(n, true, edges)
	for _, procs := range []int{2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		if g := FromWeightedEdges(n, false, edges); !g.Equal(base) {
			t.Fatalf("GOMAXPROCS=%d: undirected build differs from serial", procs)
		}
		if g := FromWeightedEdges(n, true, edges); !g.Equal(baseDir) {
			t.Fatalf("GOMAXPROCS=%d: directed build differs from serial", procs)
		}
		filtered := filterBy(base, func(e EdgeID) bool { return e%3 != 0 }, nil)
		runtime.GOMAXPROCS(1)
		if serial := filterBy(base, func(e EdgeID) bool { return e%3 != 0 }, nil); !serial.Equal(filtered) {
			t.Fatalf("GOMAXPROCS=%d: filter differs from serial", procs)
		}
	}
}

func TestFromCanonicalEdges(t *testing.T) {
	g := FromEdges(6, false, []Edge{{0, 1, 1}, {2, 1, 1}, {3, 5, 1}, {0, 4, 1}})
	got, err := FromCanonicalEdges(6, false, false, g.Edges(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(g) {
		t.Fatal("canonical rebuild differs")
	}
	bad := [][]Edge{
		{{U: 1, V: 0, W: 1}},            // not normalized
		{{U: 0, V: 0, W: 1}},            // self-loop
		{{U: 0, V: 1, W: 1}, {0, 1, 1}}, // duplicate
		{{U: 2, V: 3, W: 1}, {0, 1, 1}}, // out of order
		{{U: 0, V: 9, W: 1}},            // out of range
	}
	for i, edges := range bad {
		if _, err := FromCanonicalEdges(6, false, false, edges, 1); err == nil {
			t.Fatalf("case %d: expected error for non-canonical input", i)
		}
	}
	// The worker count the caller passes never shows in the output.
	for _, c := range buildCases() {
		r := rng.New(11)
		for trial := 0; trial < 6; trial++ {
			n := r.Intn(300) + 2
			_, want := buildBoth(t, c, n, randomEdges(r, n, r.Intn(3000), c.weighted))
			for _, workers := range []int{1, 2, 7} {
				got, err := FromCanonicalEdges(n, c.directed, c.weighted, want.Edges(), workers)
				if err != nil || !got.Equal(want) {
					t.Fatalf("%v trial %d workers %d: canonical rebuild differs (err %v)", c, trial, workers, err)
				}
			}
		}
	}
}

// FuzzFromCanonicalEdges decodes its bytes into n ≤ 64, the directed and
// weighted flags and an edge list — endpoints as signed bytes, so lists out
// of range, self-loops, duplicates and lists out of order all turn up —
// and builds it at workers 1 and 3: the two must return the same error text
// or Equal graphs, and a list accepted must build the graph ReferenceBuild
// does.
func FuzzFromCanonicalEdges(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 4, 0, 4, 4, 1, 2, 4, 3, 4, 8})
	f.Add([]byte{8, 3, 0, 1, 9, 1, 0, 2, 2, 3, 6, 2, 7, 3, 6, 0, 1})
	f.Add([]byte{6, 0, 1, 0, 4})             // not normalized
	f.Add([]byte{6, 1, 2, 3, 4, 0, 1, 4})    // out of order
	f.Add([]byte{6, 2, 0, 0, 4})             // self-loop
	f.Add([]byte{6, 0, 0, 200, 4, 0, 9, 4})  // out of range
	f.Add([]byte{64, 1, 0, 63, 4, 63, 0, 4}) // the largest n
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 65
		directed, weighted := data[1]&1 != 0, data[1]&2 != 0
		var edges []Edge
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			edges = append(edges, Edge{U: NodeID(int8(rest[0])), V: NodeID(int8(rest[1])), W: float64(rest[2]) / 4})
		}
		g1, err1 := FromCanonicalEdges(n, directed, weighted, edges, 1)
		g3, err3 := FromCanonicalEdges(n, directed, weighted, edges, 3)
		if err1 != nil || err3 != nil {
			if err1 == nil || err3 == nil || err1.Error() != err3.Error() {
				t.Fatalf("workers 1 and 3 disagree: %v vs %v", err1, err3)
			}
			return
		}
		if !g1.Equal(g3) {
			t.Fatal("workers 1 and 3 build different graphs")
		}
		if want := ReferenceBuild(n, directed, weighted, edges); !g1.Equal(want) {
			t.Fatalf("accepted list builds %v, ReferenceBuild %v", g1, want)
		}
	})
}

// FuzzBuild decodes its bytes into n ≤ 64, four flags and an unsorted edge
// list — endpoints as signed bytes, so self-loops, duplicates and
// out-of-range endpoints all turn up — and builds it. Flag bits: directed,
// weighted (weights from the bytes plus the edge's index/1024, so
// duplicates differ in weight; 1 otherwise), skewed (every other edge
// leaves vertex 0, one hub bucket holding half the list), sorted (the list
// is (U, V, W)-sorted first, the shortcut past both scatters). A list with
// an endpoint out of range must fail Builder.Build with the first such
// edge's error; any other must build, through FromEdges or
// FromWeightedEdges, a graph that validates and is Equal to
// ReferenceBuild's.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 4, 1, 0, 4, 4, 1, 2, 4, 3, 4, 8})
	f.Add([]byte{8, 2, 3, 0, 9, 0, 3, 1, 1, 0, 2, 0, 1, 6, 3, 0, 6})  // weighted duplicates, the least one later
	f.Add([]byte{9, 5, 1, 2, 0, 3, 4, 0, 5, 6, 0, 7, 8, 0, 2, 2, 1})  // directed, skewed
	f.Add([]byte{7, 10, 0, 1, 1, 0, 1, 0, 0, 2, 5, 2, 3, 1, 2, 3, 0}) // weighted, sorted
	f.Add([]byte{6, 0, 0, 200, 4, 0, 9, 4})                           // out of range
	f.Add([]byte{64, 3, 0, 63, 4, 63, 0, 4, 63, 63, 1})               // the largest n
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]) % 65
		directed, weighted := data[1]&1 != 0, data[1]&2 != 0
		skewed, sorted := data[1]&4 != 0, data[1]&8 != 0
		var edges []Edge
		for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
			e := Edge{U: NodeID(int8(rest[0])), V: NodeID(int8(rest[1])), W: 1}
			if weighted {
				e.W = float64(int8(rest[2])) + float64(len(edges))/1024
			}
			if skewed && len(edges)%2 == 0 {
				e.U = 0
			}
			edges = append(edges, e)
		}
		if sorted {
			slices.SortFunc(edges, func(a, b Edge) int {
				return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.W, b.W))
			})
		}
		b := NewBuilder(n, directed)
		b.AddEdges(edges)
		if weighted {
			b.SetWeighted()
		}
		built, err := b.Build()
		if i := slices.IndexFunc(edges, func(e Edge) bool {
			return e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n
		}); i >= 0 {
			want := fmt.Sprintf("graph: edge (%d, %d) out of range [0, %d)", edges[i].U, edges[i].V, n)
			if err == nil || err.Error() != want {
				t.Fatalf("Build: %v, want %s", err, want)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		g := FromEdges(n, directed, edges)
		if weighted {
			g = FromWeightedEdges(n, directed, edges)
		}
		want := ReferenceBuild(n, directed, weighted, edges)
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		if !g.Equal(want) || !built.Equal(want) {
			t.Fatalf("built %v, ReferenceBuild %v", g, want)
		}
	})
}

func TestContractValidation(t *testing.T) {
	g := FromEdges(4, false, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}})
	if _, _, err := g.ContractChecked([]NodeID{0, 1}); err == nil {
		t.Fatal("expected error for short mapping")
	}
	if _, _, err := g.ContractChecked([]NodeID{0, 1, 2, 9}); err == nil {
		t.Fatal("expected error for label out of range")
	}
	if _, _, err := g.ContractChecked([]NodeID{0, 1, 2, -1}); err == nil {
		t.Fatal("expected error for negative label")
	}
	func() {
		defer func() {
			msg, ok := recover().(string)
			if !ok {
				t.Fatal("Contract should panic with a descriptive message")
			}
			if want := "outside [0, 4)"; !contains(msg, want) {
				t.Fatalf("panic %q does not mention %q", msg, want)
			}
		}()
		g.Contract([]NodeID{0, 1, 2, 9})
	}()
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestEdgeSetBasics(t *testing.T) {
	s := NewEdgeSet(100)
	s.Add(3)
	s.Add(64)
	if !s.Contains(3) || s.Contains(4) || s.Count() != 2 {
		t.Fatal("Add/Contains/Count wrong")
	}
	if s.TestAndAdd(3) != true || s.TestAndAdd(5) != false || s.Count() != 3 {
		t.Fatal("TestAndAdd wrong")
	}
	s.Remove(3)
	if s.Contains(3) || s.Count() != 2 {
		t.Fatal("Remove wrong")
	}
	full := NewEdgeSet(100)
	full.Fill()
	full.Subtract(s)
	if full.Count() != 98 {
		t.Fatalf("Subtract count %d, want 98", full.Count())
	}
	del := NewEdgeSet(100)
	del.UnionComplement(s) // everything except {5, 64}
	if del.Count() != 98 || del.Contains(5) || del.Contains(64) {
		t.Fatal("UnionComplement wrong")
	}
	var members []EdgeID
	for e := EdgeID(0); int(e) < s.Len(); e++ {
		if s.Contains(e) {
			members = append(members, e)
		}
	}
	if len(members) != 2 || members[0] != 5 || members[1] != 64 {
		t.Fatalf("members %v", members)
	}
}

func TestFilterEdgeSetWrongUniversePanics(t *testing.T) {
	g := FromEdges(3, false, []Edge{{0, 1, 1}, {1, 2, 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched EdgeSet universe")
		}
	}()
	g.FilterEdgeSet(NewEdgeSet(g.M()+1), nil)
}

// Reweight shares topology with the source; both must validate and the
// source's weights must be untouched.
func TestReweightSharesTopologySafely(t *testing.T) {
	r := rng.New(29)
	g := FromWeightedEdges(30, false, randomEdges(r, 30, 200, true))
	before := g.TotalWeight()
	h := g.Reweight(func(e EdgeID) float64 { return 2 })
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalWeight() != before {
		t.Fatal("Reweight mutated its input")
	}
	if h.TotalWeight() != float64(2*g.M()) {
		t.Fatalf("reweighted total %v, want %v", h.TotalWeight(), 2*g.M())
	}
}
