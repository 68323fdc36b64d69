package graph

// Differential tests: every rebuild-free construction path (parallel
// counting-sort build, sorted-canonical scatter, direct CSR→CSR filter)
// must produce graphs bit-identical to the serial sort-based
// ReferenceBuild, over randomized directed/undirected × weighted/unweighted
// inputs, and must be invariant under the worker count.

import (
	"fmt"
	"runtime"
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

// TestFilterEdgeSetMatchesFilterEdges: a keep set built bit by bit and one
// built by AddBatch filter alike, and the CSR→CSR path equals FilterColumns
// over the same canonical columns.
func TestFilterEdgeSetMatchesFilterEdges(t *testing.T) {
	r := rng.New(11)
	g := FromEdges(40, false, randomEdges(r, 40, 250, false))
	set := NewEdgeSet(g.M())
	keep := make([]bool, g.M())
	for e := 0; e < g.M(); e++ {
		if r.Bernoulli(0.5) {
			keep[e] = true
			set.Add(EdgeID(e))
		}
	}
	a := g.FilterEdgeSet(set, nil)
	if b := filterBy(g, func(e EdgeID) bool { return keep[e] }, nil); !a.Equal(b) {
		t.Fatal("FilterEdgeSet over per-bit and batch keep sets disagree")
	}
	if c := FilterColumns(g.N(), false, g.edgeU, g.edgeV, set, nil, 0); !a.Equal(c) {
		t.Fatal("FilterEdgeSet and FilterColumns disagree")
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
