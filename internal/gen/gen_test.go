package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
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

// BenchmarkRMAT times the benchmark's pinned graph, rmat14: the draw and
// the unsorted build. Run it with -cpu 1,2 to see the build's parallel part.
func BenchmarkRMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = RMAT(14, 16, 0.57, 0.19, 0.19, 77)
	}
}

// TestThreshold53MatchesFloatCompare checks the identity RMATEdges rests
// on, k < threshold53(t) ⇔ k/2⁵³ < t, at and around every threshold of
// random, dyadic, out-of-range and NaN probabilities.
func TestThreshold53MatchesFloatCompare(t *testing.T) {
	r := rng.New(9)
	ts := []float64{math.NaN(), math.Inf(-1), -0.5, 0, 0x1p-53, 0x1p-54, 0.25, 0.5, 0.57, 0.76, 0.95, 1 - 0x1p-53, 1, 1.5, math.Inf(1)}
	for i := 0; i < 2000; i++ {
		ts = append(ts, r.Float64(), r.Float64()+r.Float64()*0x1p-40, 0.57+0.19*r.Float64())
	}
	for _, p := range ts {
		th := threshold53(p)
		for _, k := range []uint64{0, th - 1, th, th + 1, 1<<53 - 1, r.Uint64() >> 11} {
			if k >= 1<<53 {
				continue
			}
			if got, want := atLeast(k, th) == 0, float64(k)/(1<<53) < p; got != want {
				t.Fatalf("t=%v k=%d: k < threshold53 is %v, k/2⁵³ < t is %v", p, k, got, want)
			}
		}
	}
}

// columnsDigest is the SHA-256 of g's shape and canonical columns: n, the
// directed flag, then every edge's endpoints and weight bits in ID order.
func columnsDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(g.N()))
	if g.Directed() {
		buf[8] = 1
	}
	h.Write(buf[:9])
	g.ForEdges(func(_ graph.EdgeID, u, v graph.NodeID, w float64) {
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(w))
		h.Write(buf[:])
	})
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGeneratorDigestsPinned pins the exact output of every generator the
// experiments and the benchmark build from: the benchmark's rmat14 (seed
// 77), RMAT at two scales and three seeds, directed RMAT, RMAT at
// degenerate partition probabilities (where the first matching quadrant
// decides), and one call of each other generator. A draw or a builder may
// get faster; it may not move one edge.
func TestGeneratorDigestsPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *graph.Graph
		want string
	}{
		{"rmat14-77", func() *graph.Graph { return RMAT(14, 16, 0.57, 0.19, 0.19, 77) }, "79e821273b00265a5108d88f07d923a85df0f4875c2d7351c8c8de00e2734c4f"},
		{"rmat6-1", func() *graph.Graph { return RMAT(6, 16, 0.57, 0.19, 0.19, 1) }, "f82760a89aaeaf5c52676871518b0b453b5eff8c22d8344fd253975bf882bfdb"},
		{"rmat6-2", func() *graph.Graph { return RMAT(6, 16, 0.57, 0.19, 0.19, 2) }, "a24d863bef756679101b103520b85cda04643d5b49ab443303556f5261c37692"},
		{"rmat6-3", func() *graph.Graph { return RMAT(6, 16, 0.57, 0.19, 0.19, 3) }, "5deaa9ea79f671cfcba02c04ed1aaa723ebdb1dea710f0edee98e0bcff3b1b5f"},
		{"rmat10-1", func() *graph.Graph { return RMAT(10, 16, 0.57, 0.19, 0.19, 1) }, "6c64848d99919dbd48db06f675d1b55d6a19ea51473694cbf4b5bf6e184a553c"},
		{"rmat10-2", func() *graph.Graph { return RMAT(10, 16, 0.57, 0.19, 0.19, 2) }, "51c9cf609c832040fe58de4175ee55f91a46f587bbd66b93f863a0defe611e0a"},
		{"rmat10-3", func() *graph.Graph { return RMAT(10, 16, 0.57, 0.19, 0.19, 3) }, "66ec59f86433af544a34550109b656514952d22dfbf8c27f31273da1f393dc96"},
		{"rmat-directed10", func() *graph.Graph { return RMATDirected(10, 8, 0.57, 0.19, 0.19, 5) }, "70d6a8285d7926ece45023d34f7d42762f2087658cc65077f984d935c57acdd5"},
		{"rmat-a1", func() *graph.Graph { return RMAT(8, 8, 1, 0, 0, 4) }, "51b09ceccfbec44595dd4241e6e2a693d279b72c899c8f60ec63524fe58b1d4f"},
		{"rmat-d1", func() *graph.Graph { return RMAT(8, 8, 0, 0, 0, 4) }, "51b09ceccfbec44595dd4241e6e2a693d279b72c899c8f60ec63524fe58b1d4f"},
		{"rmat-b1", func() *graph.Graph { return RMAT(8, 8, 0, 1, 0, 4) }, "e8a9baf56e873c94fbd4072d376f78b94c495d0d7d9f506438c34c0dadd3cecd"},
		{"rmat-c1", func() *graph.Graph { return RMAT(8, 8, 0, 0, 1, 4) }, "e8a9baf56e873c94fbd4072d376f78b94c495d0d7d9f506438c34c0dadd3cecd"},
		{"rmat-half", func() *graph.Graph { return RMAT(8, 8, 0.5, 0, 0.5, 4) }, "26b503ece3396ce00b931e13a293e210cbcdcf5b835f449d711f7d0bf27066be"},
		{"rmat-uniform", func() *graph.Graph { return RMAT(8, 8, 0.25, 0.25, 0.25, 4) }, "6c931f406dca012626f933385f5888149a82a143d1a392f4022ab9947be2f983"},
		{"er", func() *graph.Graph { return ErdosRenyi(2000, 16000, 6) }, "6f4be2ec615acaf001559757478adab5c6c323c9d51a1639c408d9fffcf765fa"},
		{"ba", func() *graph.Graph { return BarabasiAlbert(2000, 4, 6) }, "3ea4ba72cb2438b7ac15b63ee634927b15268d8d5eaa7726e0084e4f24a32542"},
		{"ws", func() *graph.Graph { return WattsStrogatz(2000, 8, 0.1, 6) }, "cadc9335f79e513716a840f367eb98ea74b7ba2856e33f2936ab4bbb1e403838"},
		{"planted", func() *graph.Graph { return PlantedPartition(1000, 25, 0.5, 1000, 6) }, "445ca82241ed3664cdcf3de595279f4f52e00fd7769bc8189aa2d12047684cb4"},
		{"grid", func() *graph.Graph { return Grid2D(40, 50, true) }, "41d9287338848d3d84e818162bbc59937d4472615cc47d3a394d460ca5df2fbe"},
		{"lognormal", func() *graph.Graph { return LogNormalDegreeGraph(2000, 1.5, 1.0, 6) }, "0d0c3abbabddeb49c2913c9515bf35886621a4c72b607ca15cc1af29e7aa876c"},
	} {
		if got := columnsDigest(tc.g()); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
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
