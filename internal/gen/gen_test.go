package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"slimgraph/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 1000 {
		t.Fatalf("n = %d", g.N())
	}
	// Collisions and loops shave a small fraction of the requested 5000.
	if g.M() < 4500 || g.M() > 5000 {
		t.Fatalf("m = %d, want about 5000", g.M())
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a := ErdosRenyi(500, 2000, 7)
	b := ErdosRenyi(500, 2000, 7)
	if a.M() != b.M() {
		t.Fatalf("same seed gave different graphs: %d vs %d edges", a.M(), b.M())
	}
	c := ErdosRenyi(500, 2000, 8)
	if a.M() == c.M() && sameEdges(a, c) {
		t.Fatal("different seeds gave identical graphs")
	}
}

func sameEdges(a, b *graph.Graph) bool {
	if a.M() != b.M() {
		return false
	}
	for e := 0; e < a.M(); e++ {
		au, av := a.EdgeEndpoints(graph.EdgeID(e))
		bu, bv := b.EdgeEndpoints(graph.EdgeID(e))
		if au != bu || av != bv {
			return false
		}
	}
	return true
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 4096 {
		t.Fatalf("n = %d", g.N())
	}
	// RMAT with Graph500 parameters must be skewed: max degree far above
	// average.
	if float64(g.MaxDegree()) < 5*g.AvgDegree() {
		t.Fatalf("max degree %d not skewed vs avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestRMATDirected(t *testing.T) {
	g := RMATDirected(10, 4, 0.57, 0.19, 0.19, 3)
	if !g.Directed() {
		t.Fatal("not directed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(2000, 3, 5)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 2000 {
		t.Fatalf("n = %d", g.N())
	}
	// Every non-seed vertex attaches k edges, some merged as duplicates.
	if g.M() < 5000 {
		t.Fatalf("m = %d, want about 6000", g.M())
	}
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Fatalf("BA graph not skewed: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(1000, 6, 0.1, 9)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() < 2700 || g.M() > 3000 {
		t.Fatalf("m = %d, want about 3000", g.M())
	}
}

func TestGrid2D(t *testing.T) {
	g := Grid2D(10, 20, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("n = %d", g.N())
	}
	want := 10*19 + 9*20 // horizontal + vertical
	if g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	gd := Grid2D(10, 20, true)
	if gd.M() != want+9*19 {
		t.Fatalf("diagonal m = %d, want %d", gd.M(), want+9*19)
	}
}

func TestPlantedPartition(t *testing.T) {
	g := PlantedPartition(300, 30, 0.5, 100, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Communities of 30 at p=0.5 give ~217 intra edges each; 10 communities.
	if g.M() < 1500 {
		t.Fatalf("m = %d, too sparse for planted communities", g.M())
	}
}

func TestSmallFamilies(t *testing.T) {
	if g := Complete(6); g.M() != 15 {
		t.Fatalf("K6 m = %d", g.M())
	}
	if g := Path(10); g.M() != 9 {
		t.Fatalf("P10 m = %d", g.M())
	}
	if g := Cycle(10); g.M() != 10 {
		t.Fatalf("C10 m = %d", g.M())
	}
	if g := Star(10); g.M() != 9 || g.Degree(0) != 9 {
		t.Fatalf("star wrong: m=%d deg0=%d", g.M(), g.Degree(0))
	}
}

func TestWithUniformWeights(t *testing.T) {
	g := WithUniformWeights(Cycle(50), 1, 10, 3)
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
	for e := 0; e < g.M(); e++ {
		w := g.EdgeWeight(graph.EdgeID(e))
		if w < 1 || w >= 10 {
			t.Fatalf("weight %v out of range", w)
		}
	}
	// Deterministic per edge ID.
	g2 := WithUniformWeights(Cycle(50), 1, 10, 3)
	for e := 0; e < g.M(); e++ {
		if g.EdgeWeight(graph.EdgeID(e)) != g2.EdgeWeight(graph.EdgeID(e)) {
			t.Fatal("weights not deterministic")
		}
	}
}

func TestLogNormalDegreeGraph(t *testing.T) {
	g := LogNormalDegreeGraph(2000, 1.5, 1.0, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() < 1000 {
		t.Fatalf("m = %d, too sparse", g.M())
	}
	if float64(g.MaxDegree()) < 3*g.AvgDegree() {
		t.Fatalf("log-normal graph lacks heavy tail: max %d avg %.1f",
			g.MaxDegree(), g.AvgDegree())
	}
}

func BenchmarkRMATScale14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RMAT(14, 8, 0.57, 0.19, 0.19, uint64(i))
	}
}

// edgeDigest hashes g's edges in ID order: endpoints and weight bits.
func edgeDigest(g *graph.Graph) string {
	h := fnv.New64a()
	g.ForEdges(func(e graph.EdgeID, u, v graph.NodeID, w float64) {
		fmt.Fprintf(h, "%d %d %d %x\n", e, u, v, math.Float64bits(w))
	})
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGeneratePinned pins every kind Generate dispatches, at one seed and
// size, plain and weighted: n, m, the edges and the source string. The
// digests were taken from the direct generator calls each CLI and the
// server made before they shared Generate.
func TestGeneratePinned(t *testing.T) {
	for _, tc := range []struct {
		kind, source    string
		n, m            int
		plain, weighted string
	}{
		{"rmat", "rmat:scale=7,ef=4,seed=5", 128, 350, "74b1affc1fe59c85", "6f4fc20328fc3be8"},
		{"er", "er:n=300,m=1200,seed=5", 300, 1179, "f7516df160d7fc9e", "2e8482a29694ed3f"},
		{"ba", "ba:n=300,k=4,seed=5", 300, 1160, "158201c0642990a0", "527380abfb3390d7"},
		{"grid", "grid:side=18", 324, 612, "10302000c6e72605", "f5623bc77176dbd7"},
		{"communities", "communities:n=300,seed=5", 300, 2070, "4a6f3bf80f6869aa", "c8913cc78b332cfe"},
		{"smallworld", "smallworld:n=300,k=4,seed=5", 300, 599, "14b6456f0cc3f806", "d5a9c3d81855bdb5"},
	} {
		for _, weighted := range []bool{false, true} {
			g, source, err := Generate(tc.kind, 7, 4, 300, 5, weighted)
			if err != nil {
				t.Fatalf("%s: %v", tc.kind, err)
			}
			wantSource, wantDigest := tc.source, tc.plain
			if weighted {
				wantSource, wantDigest = tc.source+",weighted", tc.weighted
			}
			if source != wantSource || g.N() != tc.n || g.M() != tc.m || edgeDigest(g) != wantDigest {
				t.Errorf("%s weighted=%v: source %q n=%d m=%d digest %s; want %q n=%d m=%d digest %s",
					tc.kind, weighted, source, g.N(), g.M(), edgeDigest(g), wantSource, tc.n, tc.m, wantDigest)
			}
		}
	}
	if _, _, err := Generate("lattice", 7, 4, 300, 5, false); err == nil ||
		err.Error() != `unknown generator "lattice" (rmat, er, ba, grid, communities, smallworld)` {
		t.Errorf("unknown kind: %v", err)
	}
}
