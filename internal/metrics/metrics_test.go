package metrics

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/schemes"
	"slimgraph/internal/succinct"
)

func TestKLIdenticalIsZero(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	if d := KLDivergence(p, p); d != 0 {
		t.Fatalf("KL(p||p) = %v", d)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 50
		p := make([]float64, n)
		q := make([]float64, n)
		for i := range p {
			p[i] = r.Float64() + 0.001
			q[i] = r.Float64() + 0.001
		}
		d := KLDivergence(p, q)
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKLKnownValue(t *testing.T) {
	// KL([1,0] || [0.5,0.5]) = 1*log2(1/0.5) = 1 bit.
	d := KLDivergence([]float64{1, 0}, []float64{0.5, 0.5})
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("KL = %v, want 1", d)
	}
}

func TestKLInfiniteOnDisjointSupport(t *testing.T) {
	d := KLDivergence([]float64{1, 0}, []float64{0, 1})
	if !math.IsInf(d, 1) {
		t.Fatalf("KL = %v, want +Inf", d)
	}
	s := KLDivergenceSmoothed([]float64{1, 0}, []float64{0, 1}, 1e-6)
	if math.IsInf(s, 1) || s <= 0 {
		t.Fatalf("smoothed KL = %v", s)
	}
}

func TestKLNormalizesInputs(t *testing.T) {
	a := KLDivergence([]float64{2, 6}, []float64{4, 4})
	b := KLDivergence([]float64{0.25, 0.75}, []float64{0.5, 0.5})
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("unnormalized %v != normalized %v", a, b)
	}
}

func TestKLAsymmetric(t *testing.T) {
	p := []float64{0.9, 0.1}
	q := []float64{0.5, 0.5}
	if KLDivergence(p, q) == KLDivergence(q, p) {
		t.Fatal("KL should be asymmetric here")
	}
}

func TestJensenShannonSymmetricBounded(t *testing.T) {
	p := []float64{0.9, 0.1, 0}
	q := []float64{0.2, 0.3, 0.5}
	a, b := JensenShannon(p, q), JensenShannon(q, p)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("JS not symmetric: %v vs %v", a, b)
	}
	if a < 0 || a > 1 {
		t.Fatalf("JS out of [0,1]: %v", a)
	}
}

func TestTotalVariation(t *testing.T) {
	if d := TotalVariation([]float64{1, 0}, []float64{0, 1}); d != 1 {
		t.Fatalf("TV = %v, want 1", d)
	}
	if d := TotalVariation([]float64{0.5, 0.5}, []float64{0.5, 0.5}); d != 0 {
		t.Fatalf("TV = %v, want 0", d)
	}
}

func TestReorderedPairsMatchesNaiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 60
		orig := make([]float64, n)
		comp := make([]float64, n)
		for i := range orig {
			orig[i] = float64(r.Intn(10)) // ties on purpose
			comp[i] = float64(r.Intn(10))
		}
		fast := ReorderedPairs(orig, comp)
		naive := NaiveReorderedPairs(orig, comp)
		return math.Abs(fast-naive) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderedPairsExtremes(t *testing.T) {
	orig := []float64{1, 2, 3, 4}
	if d := ReorderedPairs(orig, orig); d != 0 {
		t.Fatalf("identical order: %v", d)
	}
	rev := []float64{4, 3, 2, 1}
	// All 6 pairs reordered, normalized by n^2 = 16.
	if d := ReorderedPairs(orig, rev); math.Abs(d-6.0/16) > 1e-12 {
		t.Fatalf("reversed order: %v, want %v", d, 6.0/16)
	}
}

func TestReorderedNeighborPairs(t *testing.T) {
	g := gen.Path(4) // edges (0,1), (1,2), (2,3)
	orig := []float64{1, 2, 3, 4}
	comp := []float64{2, 1, 3, 4} // only pair (0,1) flips
	got := ReorderedNeighborPairs(g, orig, comp)
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("got %v, want 1/3", got)
	}
}

func TestCriticalEdgesPath(t *testing.T) {
	g := gen.Path(5)
	dist := []int32{0, 1, 2, 3, 4}
	if ce := CriticalEdgeCount(g, dist); ce != 4 {
		t.Fatalf("path critical edges %d, want 4", ce)
	}
}

func TestCriticalEdgesSkipLevelEdges(t *testing.T) {
	// Cycle of 4 from root 0: dists 0,1,2,1. Edge (1,3) connects two
	// level-1 vertices -> not critical.
	g := gen.Cycle(4)
	dist := []int32{0, 1, 2, 1}
	if ce := CriticalEdgeCount(g, dist); ce != 4 {
		t.Fatalf("C4 critical edges %d, want 4", ce)
	}
	h := graph.FromEdges(3, false, []graph.Edge{graph.E(0, 1), graph.E(0, 2), graph.E(1, 2)})
	// From root 0: dists 0,1,1; edge (1,2) same level -> not critical.
	if ce := CriticalEdgeCount(h, []int32{0, 1, 1}); ce != 2 {
		t.Fatalf("triangle critical edges %d, want 2", ce)
	}
}

func TestBFSCriticalIdentityRetention(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	res := BFSCritical(g, g, 0, 2)
	if res.Retention() != 1 {
		t.Fatalf("self retention %v", res.Retention())
	}
}

func TestBFSCriticalDropsWithSpanner(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 5)
	sch, err := schemes.Parse("spanner:k=32", schemes.WithSeed(7), schemes.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sch.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	ret := BFSCriticalMulti(g, sp.Output, []graph.NodeID{0, 5, 100}, 2)
	if ret >= 1 || ret <= 0 {
		t.Fatalf("spanner k=32 retention %v, want in (0, 1)", ret)
	}
}

func TestDegreeDistributionSums(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 3)
	dist := DegreeDistribution(g)
	s := 0.0
	for _, f := range dist {
		s += f
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("distribution sums to %v", s)
	}
}

func TestPowerLawSlopeOnSyntheticLaw(t *testing.T) {
	// dist[d] proportional to d^-2 must fit slope -2 exactly.
	dist := make([]float64, 100)
	for d := 1; d < 100; d++ {
		dist[d] = math.Pow(float64(d), -2)
	}
	slope, r2 := PowerLawSlope(dist)
	if math.Abs(slope+2) > 1e-9 || r2 < 0.999 {
		t.Fatalf("slope %v r2 %v, want -2 and ~1", slope, r2)
	}
}

func TestDistributionDistancePadding(t *testing.T) {
	a := []float64{0.5, 0.5}
	b := []float64{0.5, 0.25, 0.25}
	d := DistributionDistance(a, b)
	if d <= 0 || d > 1 {
		t.Fatalf("distance %v", d)
	}
	if DistributionDistance(a, a) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func BenchmarkReorderedPairs100k(b *testing.B) {
	r := rng.New(1)
	n := 100000
	orig := make([]float64, n)
	comp := make([]float64, n)
	for i := range orig {
		orig[i] = r.Float64()
		comp[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReorderedPairs(orig, comp)
	}
}

// TestRangeHistogramsAddUpToDistribution: the histograms of vertex ranges
// that tile [0, n) add up to the whole graph's, and the distribution step
// over the sum is DegreeDistribution bit for bit, on raw and packed forms,
// down to the empty graph's single zero bin.
func TestRangeHistogramsAddUpToDistribution(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat10": gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77),
		"grid32": gen.Grid2D(32, 32, true),
		"empty":  gen.ErdosRenyi(0, 0, 1),
	} {
		n := g.N()
		for form, a := range map[string]graph.Adjacency{"raw": g, "packed": succinct.Pack(g, 1)} {
			whole := DegreeHistogram(a, 0, graph.NodeID(n))
			if n > 0 && !slices.Equal(whole, g.DegreeHistogram()) {
				t.Fatalf("%s/%s: whole-range histogram differs from the graph's own", name, form)
			}
			want := DegreeDistribution(a)
			for _, of := range []int{1, 2, 3, 7} {
				var sum []int64
				for part := of - 1; part >= 0; part-- { // any order adds up
					for d, c := range DegreeHistogram(a, graph.NodeID(n*part/of), graph.NodeID(n*(part+1)/of)) {
						if d >= len(sum) {
							sum = append(sum, make([]int64, d+1-len(sum))...)
						}
						sum[d] += c
					}
				}
				if !slices.Equal(sum, whole) {
					t.Errorf("%s/%s: %d range histograms add up to %v, whole graph %v", name, form, of, sum, whole)
				}
				if got := Distribution(sum, n); !slices.Equal(got, want) {
					t.Errorf("%s/%s over %d ranges: distribution %v, DegreeDistribution %v", name, form, of, got, want)
				}
			}
		}
	}
	if got := DegreeDistribution(gen.ErdosRenyi(0, 0, 1)); !slices.Equal(got, []float64{0}) {
		t.Errorf("empty graph: distribution %v, want the one zero bin", got)
	}
}

// KLDivergenceSmoothed adds eps to every entry of both distributions before
// comparing, which keeps the divergence finite when compression zeroes an
// entry (e.g. a vertex losing all rank mass).
func KLDivergenceSmoothed(p, q []float64, eps float64) float64 {
	checkPair(p, q)
	ps := make([]float64, len(p))
	qs := make([]float64, len(q))
	for i := range p {
		ps[i] = p[i] + eps
		qs[i] = q[i] + eps
	}
	return KLDivergence(ps, qs)
}

// NaiveReorderedPairs is the O(n^2) reference used by tests.
func NaiveReorderedPairs(orig, comp []float64) float64 {
	n := len(orig)
	if n < 2 {
		return 0
	}
	var count int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (orig[i]-orig[j])*(comp[i]-comp[j]) < 0 {
				count++
			}
		}
	}
	return float64(count) / float64(n) / float64(n)
}
