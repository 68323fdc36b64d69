package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"slimgraph/internal/rng"
)

// triangle with a tail: 0-1, 1-2, 0-2, 2-3
func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := FromEdges(4, false, []Edge{{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {2, 3, 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := testGraph(t)
	if g.N() != 4 || g.M() != 4 || g.NumArcs() != 8 {
		t.Fatalf("n=%d m=%d arcs=%d", g.N(), g.M(), g.NumArcs())
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(2), g.Degree(3))
	}
	want := []NodeID{0, 1, 3}
	got := g.Neighbors(2)
	if len(got) != len(want) {
		t.Fatalf("neighbors of 2: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors of 2: %v, want %v", got, want)
		}
	}
}

func TestSelfLoopsDropped(t *testing.T) {
	g := FromEdges(3, false, []Edge{{0, 0, 1}, {0, 1, 1}, {2, 2, 1}})
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
}

func TestParallelEdgesMergedMinWeight(t *testing.T) {
	g := FromWeightedEdges(2, false, []Edge{{0, 1, 5}, {1, 0, 2}, {0, 1, 9}})
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if w := g.EdgeWeight(0); w != 2 {
		t.Fatalf("weight = %v, want 2 (minimum)", w)
	}
}

func TestFindEdgeAndHasEdge(t *testing.T) {
	g := testGraph(t)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("undirected edge missing in one direction")
	}
	if g.HasEdge(0, 3) {
		t.Fatal("phantom edge 0-3")
	}
	e1, ok1 := g.FindEdge(1, 2)
	e2, ok2 := g.FindEdge(2, 1)
	if !ok1 || !ok2 || e1 != e2 {
		t.Fatalf("canonical edge IDs differ across directions: %d vs %d", e1, e2)
	}
	u, v := g.EdgeEndpoints(e1)
	if u != 1 || v != 2 {
		t.Fatalf("endpoints (%d, %d), want (1, 2)", u, v)
	}
}

func TestDirectedGraph(t *testing.T) {
	g := FromEdges(3, true, []Edge{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}, {0, 2, 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 4 || g.NumArcs() != 4 {
		t.Fatalf("m=%d arcs=%d", g.M(), g.NumArcs())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directedness not respected")
	}
	if g.InDegree(2) != 2 || g.Degree(2) != 1 {
		t.Fatalf("in=%d out=%d for vertex 2", g.InDegree(2), g.Degree(2))
	}
	in := g.InNeighbors(0)
	if len(in) != 1 || in[0] != 2 {
		t.Fatalf("in-neighbors of 0: %v", in)
	}
}

func TestDegreeStats(t *testing.T) {
	g := testGraph(t)
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
	if g.AvgDegree() != 2 {
		t.Fatalf("AvgDegree = %v", g.AvgDegree())
	}
	h := g.DegreeHistogram()
	// degrees: 2, 2, 3, 1
	if h[1] != 1 || h[2] != 2 || h[3] != 1 {
		t.Fatalf("histogram %v", h)
	}
}

func TestTotalWeight(t *testing.T) {
	g := FromWeightedEdges(3, false, []Edge{{0, 1, 2.5}, {1, 2, 1.5}})
	if g.TotalWeight() != 4 {
		t.Fatalf("TotalWeight = %v", g.TotalWeight())
	}
	u := FromEdges(3, false, []Edge{{0, 1, 1}, {1, 2, 1}})
	if u.TotalWeight() != 2 {
		t.Fatalf("unweighted TotalWeight = %v", u.TotalWeight())
	}
}

// TestCSRBytesPinned pins the CSR size that succinct.Stats and the server's
// residency gauges report, on the shapes of the benchmark's pinned graphs
// (RMAT(14, 16) seed 77, a 128×128 grid with diagonals): the undirected
// values must not move. A directed graph adds an in-CSR of offsets and
// neighbors only.
func TestCSRBytesPinned(t *testing.T) {
	for _, c := range []struct {
		name               string
		n, arcs, m         int
		directed, weighted bool
		want               int64
	}{
		{"rmat14", 16384, 426440, 213220, false, false, 5248360},
		{"rmat14 weighted", 16384, 426440, 213220, false, true, 6954120},
		{"grid128", 16384, 97282, 48641, false, false, 1298464},
		{"grid128 weighted", 16384, 97282, 48641, false, true, 1687592},
		// Out-CSR 32 + 4·8, edges 4·8, in-CSR 32 + 4·4.
		{"directed", 3, 4, 4, true, false, 144},
	} {
		if got := CSRBytes(c.n, c.arcs, c.m, c.directed, c.weighted); got != c.want {
			t.Errorf("%s: CSRBytes = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2, false)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for out-of-range endpoint")
	}
}

// filterBy is FilterEdgeSet over the edges keep admits.
func filterBy(g *Graph, keep func(e EdgeID) bool, reweight func(e EdgeID) float64) *Graph {
	set := NewEdgeSet(g.M())
	set.AddBatch(0, keep)
	return g.FilterEdgeSet(set, reweight)
}

func TestFilterEdges(t *testing.T) {
	g := testGraph(t)
	// Keep only the tail edge 2-3.
	tail, _ := g.FindEdge(2, 3)
	h := filterBy(g, func(e EdgeID) bool { return e == tail }, nil)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.N() != 4 || h.M() != 1 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if !h.HasEdge(2, 3) || h.HasEdge(0, 1) {
		t.Fatal("wrong edges survived")
	}
}

func TestFilterEdgesReweight(t *testing.T) {
	g := testGraph(t)
	h := filterBy(g, func(EdgeID) bool { return true }, func(e EdgeID) float64 { return 2 })
	if !h.Weighted() {
		t.Fatal("reweighted graph not marked weighted")
	}
	for e := 0; e < h.M(); e++ {
		if h.EdgeWeight(EdgeID(e)) != 2 {
			t.Fatalf("edge %d weight %v", e, h.EdgeWeight(EdgeID(e)))
		}
	}
}

// TestIsolateVertices: deleting every edge of a vertex, as a vertex kernel
// does, keeps the vertex set.
func TestIsolateVertices(t *testing.T) {
	g := testGraph(t)
	h := filterBy(g, func(e EdgeID) bool {
		u, v := g.EdgeEndpoints(e)
		return u != 2 && v != 2
	}, nil)
	if h.N() != 4 {
		t.Fatalf("vertex count changed: %d", h.N())
	}
	if h.M() != 1 || !h.HasEdge(0, 1) {
		t.Fatalf("m=%d; isolating 2 should leave only 0-1", h.M())
	}
	if h.Degree(2) != 0 || h.Degree(3) != 0 {
		t.Fatal("isolated vertices still have edges")
	}
}

func TestContractTriangle(t *testing.T) {
	g := testGraph(t)
	// Merge the triangle {0, 1, 2} into one vertex.
	h, remap := g.Contract([]NodeID{0, 0, 0, 3})
	if h.N() != 2 {
		t.Fatalf("n = %d, want 2", h.N())
	}
	if h.M() != 1 {
		t.Fatalf("m = %d, want 1 (tail edge)", h.M())
	}
	if remap[0] != remap[1] || remap[1] != remap[2] || remap[3] == remap[0] {
		t.Fatalf("remap %v", remap)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := testGraph(t)
	c := g.Clone()
	if c.M() != g.M() || c.N() != g.N() {
		t.Fatal("clone differs")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := testGraph(t)
	h := FromEdges(g.N(), false, g.Edges())
	if h.M() != g.M() {
		t.Fatalf("round trip m = %d, want %d", h.M(), g.M())
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(EdgeID(e))
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d, %d) lost", u, v)
		}
	}
}

// Property: for random edge sets the built graph validates, has symmetric
// adjacency, and degree sum equals 2m.
func TestBuildPropertyRandom(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawM uint16) bool {
		n := int(rawN)%50 + 2
		m := int(rawM) % 300
		r := rng.New(seed)
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: 1}
		}
		g := FromEdges(n, false, edges)
		if g.Validate() != nil {
			return false
		}
		degSum := 0
		for v := 0; v < n; v++ {
			degSum += g.Degree(NodeID(v))
			for _, w := range g.Neighbors(NodeID(v)) {
				if !g.HasEdge(w, NodeID(v)) {
					return false
				}
			}
		}
		return degSum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FilterEdgeSet with a random keep set has exactly the kept edges.
func TestFilterEdgesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 30
		edges := make([]Edge, 100)
		for i := range edges {
			edges[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: 1}
		}
		g := FromEdges(n, false, edges)
		keep := make(map[EdgeID]bool)
		for e := 0; e < g.M(); e++ {
			if r.Bernoulli(0.5) {
				keep[EdgeID(e)] = true
			}
		}
		h := filterBy(g, func(e EdgeID) bool { return keep[e] }, nil)
		if h.M() != len(keep) {
			return false
		}
		for e := range keep {
			u, v := g.EdgeEndpoints(e)
			if !h.HasEdge(u, v) {
				return false
			}
		}
		return h.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild100k(b *testing.B) {
	r := rng.New(1)
	n := 10000
	edges := make([]Edge, 100000)
	for i := range edges {
		edges[i] = Edge{U: NodeID(r.Intn(n)), V: NodeID(r.Intn(n)), W: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, false, edges)
	}
}

// InListsOf borrows a raw CSR's own arrays — the in-CSR of a directed graph,
// the out-CSR of an undirected one — and decodes any other representation
// into the same lists, at any worker count. A struct embedding the *Graph
// stands in for a representation without a CSR to lend.
func TestInListsOf(t *testing.T) {
	r := rng.New(67)
	for _, directed := range []bool{false, true} {
		var edges []Edge
		for i := 0; i < 900; i++ {
			edges = append(edges, E(NodeID(r.Intn(203)), NodeID(r.Intn(203))))
		}
		g := FromEdges(203, directed, edges)
		wantOff, wantNbrs := g.offsets, g.nbrs
		if directed {
			wantOff, wantNbrs = g.inOffsets, g.inNbrs
		}
		off, nbrs, owned := InListsOf(g, 0)
		if owned || &off[0] != &wantOff[0] || len(off) != len(wantOff) || &nbrs[0] != &wantNbrs[0] || len(nbrs) != len(wantNbrs) {
			t.Fatalf("directed=%v: InListsOf copied the CSR (owned=%v) instead of lending its arrays", directed, owned)
		}
		for _, workers := range []int{1, 2, 7} {
			off, nbrs, owned := InListsOf(struct{ *Graph }{g}, workers)
			if !owned || len(off) != g.N()+1 || off[g.N()] != int64(len(nbrs)) {
				t.Fatalf("directed=%v workers=%d: owned=%v, %d offsets ending at %d over %d neighbors",
					directed, workers, owned, len(off), off[len(off)-1], len(nbrs))
			}
			for v := 0; v < g.N(); v++ {
				got, want := nbrs[off[v]:off[v+1]], g.InNeighbors(NodeID(v))
				if !slices.Equal(got, want) {
					t.Fatalf("directed=%v workers=%d: in-list of %d = %v, want %v", directed, workers, v, got, want)
				}
			}
		}
	}
}
