package centrality

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

func sumsToOne(t *testing.T, pr []float64) {
	t.Helper()
	sum := 0.0
	for _, r := range pr {
		if r < 0 {
			t.Fatalf("negative rank %v", r)
		}
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestPageRankUniformOnSymmetric(t *testing.T) {
	// On a cycle every vertex has the same rank.
	g := gen.Cycle(10)
	pr := PageRank(g, PageRankOptions{Workers: 1})
	sumsToOne(t, pr)
	for _, r := range pr {
		if math.Abs(r-0.1) > 1e-6 {
			t.Fatalf("cycle rank %v, want 0.1", r)
		}
	}
}

func TestPageRankStarHubHighest(t *testing.T) {
	g := gen.Star(11)
	pr := PageRank(g, PageRankOptions{})
	sumsToOne(t, pr)
	for v := 1; v < 11; v++ {
		if pr[0] <= pr[v] {
			t.Fatalf("hub rank %v not above leaf rank %v", pr[0], pr[v])
		}
		if math.Abs(pr[v]-pr[1]) > 1e-9 {
			t.Fatalf("leaves differ: %v vs %v", pr[v], pr[1])
		}
	}
}

func TestPageRankDanglingMassConserved(t *testing.T) {
	// Directed chain into a sink: 0 -> 1 -> 2; vertex 2 is dangling.
	g := graph.FromEdges(3, true, []graph.Edge{graph.E(0, 1), graph.E(1, 2)})
	pr := PageRank(g, PageRankOptions{})
	sumsToOne(t, pr)
	if !(pr[2] > pr[1] && pr[1] > pr[0]) {
		t.Fatalf("chain ranks not increasing: %v", pr)
	}
}

func TestPageRankIsolatedVertices(t *testing.T) {
	// Compression can fully isolate vertices; ranks must stay a
	// distribution.
	g := graph.FromEdges(5, false, []graph.Edge{graph.E(0, 1)})
	pr := PageRank(g, PageRankOptions{})
	sumsToOne(t, pr)
}

func TestPageRankParallelMatchesSequential(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	a := PageRank(g, PageRankOptions{Workers: 1})
	b := PageRank(g, PageRankOptions{Workers: 8})
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatalf("rank[%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

// referencePageRank is the straight-line power iteration PageRankOn must
// reproduce bit for bit: sequential, one rank[u]/deg(u) division per arc,
// in-neighbors taken in increasing order. It reads the representation only
// through N, Degree and ForNeighbors (in-lists are the transposed
// out-lists), so it shares nothing with the ScanInLists pull loop.
func referencePageRank(g graph.Adjacency, opts PageRankOptions) []float64 {
	o := opts.withDefaults()
	n := g.N()
	in := make([][]graph.NodeID, n)
	for u := 0; u < n; u++ {
		g.ForNeighbors(graph.NodeID(u), func(w graph.NodeID) { in[w] = append(in[w], graph.NodeID(u)) })
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1.0 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	base := (1 - o.Damping) * inv
	for iter := 0; iter < o.MaxIter; iter++ {
		dangling := 0.0
		for v := 0; v < n; v++ {
			if g.Degree(graph.NodeID(v)) == 0 {
				dangling += rank[v]
			}
		}
		danglingShare := o.Damping * dangling * inv
		delta := 0.0
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range in[v] {
				sum += rank[u] / float64(g.Degree(u))
			}
			next[v] = base + danglingShare + o.Damping*sum
			delta += math.Abs(next[v] - rank[v])
		}
		rank, next = next, rank
		if delta < o.Tolerance {
			break
		}
	}
	return rank
}

// mapServable writes pg's servable image to a temporary file and maps it.
func mapServable(t *testing.T, pg *succinct.PackedGraph) *succinct.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.slim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := succinct.WriteServable(f, pg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := succinct.OpenPacked(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestPageRankOnMatchesPerArcReference pins the hoisted pull loop to the
// textbook per-arc form with == on every float, for every representation
// and worker count, on graphs with isolated and dangling vertices whose
// size is not a multiple of the packed block.
func TestPageRankOnMatchesPerArcReference(t *testing.T) {
	r := rng.New(211)
	const n = 601
	var arcs []graph.Edge
	for i := 0; i < 4000; i++ {
		// Sources avoid the top of the ID range, targets the bottom: the
		// directed graph gets dangling sinks, pure sources and — ID 300,
		// skipped by both — an isolated vertex.
		u, v := graph.NodeID(r.Intn(500)), graph.NodeID(100+r.Intn(501))
		if u != 300 && v != 300 {
			arcs = append(arcs, graph.E(u, v))
		}
	}
	graphs := map[string]*graph.Graph{
		"undirected": gen.RMAT(9, 6, 0.57, 0.19, 0.19, 5), // skewed, ~1/4 isolated
		"directed":   graph.FromEdges(n, true, arcs),
	}
	for name, g := range graphs {
		isolated, sinks := 0, 0
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if g.Degree(v) == 0 && g.InDegree(v) == 0 {
				isolated++
			} else if g.Degree(v) == 0 {
				sinks++
			}
		}
		if isolated == 0 || (g.Directed() && sinks == 0) {
			t.Fatalf("%s: %d isolated vertices, %d dangling sinks: the case lost its coverage", name, isolated, sinks)
		}
		pg := succinct.Pack(g, 0, succinct.WithBlockVertices(16))
		reps := map[string]graph.Adjacency{
			"raw":           g,
			"packed":        pg,
			"packed-degree": succinct.Pack(g, 0, succinct.WithOrder(succinct.OrderDegree)),
			"mapped":        mapServable(t, pg),
		}
		want := referencePageRank(g, PageRankOptions{})
		for rep, a := range reps {
			ref := want
			if rep == "packed-degree" {
				// Relabeling reorders every in-list and with it the float
				// sums: the reference runs in the relabeled ID space.
				ref = referencePageRank(a, PageRankOptions{})
			}
			for _, workers := range []int{1, 2, 7} {
				got := PageRank(a, PageRankOptions{Workers: workers})
				for v := range ref {
					if got[v] != ref[v] {
						t.Fatalf("%s/%s workers=%d: rank[%d] = %v, per-arc reference %v",
							name, rep, workers, v, got[v], ref[v])
					}
				}
			}
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2-3-4: BC of middle vertex 2 is 4 (pairs {0,1}x{3,4} ... ).
	// Exact values: v1: pairs (0;2),(0;3),(0;4) -> 3; v2: (0;3),(0;4),(1;3),(1;4) -> 4.
	g := gen.Path(5)
	bc := Betweenness(g, 1)
	want := []float64{0, 3, 4, 3, 0}
	for i := range want {
		if math.Abs(bc[i]-want[i]) > 1e-9 {
			t.Fatalf("bc = %v, want %v", bc, want)
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star hub lies on all (n-1 choose 2) leaf pairs.
	g := gen.Star(6)
	bc := Betweenness(g, 2)
	if math.Abs(bc[0]-10) > 1e-9 { // C(5,2) = 10
		t.Fatalf("hub bc = %v, want 10", bc[0])
	}
	for v := 1; v < 6; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf bc = %v", bc[v])
		}
	}
}

func TestBetweennessCompleteIsZero(t *testing.T) {
	g := gen.Complete(6)
	for _, v := range Betweenness(g, 2) {
		if v != 0 {
			t.Fatalf("complete graph has nonzero bc %v", v)
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	g := gen.Cycle(8)
	bc := Betweenness(g, 1)
	for i := 1; i < len(bc); i++ {
		if math.Abs(bc[i]-bc[0]) > 1e-9 {
			t.Fatalf("cycle bc not uniform: %v", bc)
		}
	}
	if bc[0] <= 0 {
		t.Fatalf("cycle bc should be positive, got %v", bc[0])
	}
}

func TestBetweennessParallelMatchesSequential(t *testing.T) {
	g := gen.ErdosRenyi(200, 800, 7)
	a := Betweenness(g, 1)
	b := Betweenness(g, 8)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-6 {
			t.Fatalf("bc[%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBetweennessSampledFullEqualsExact(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 9)
	all := make([]graph.NodeID, g.N())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	exact := Betweenness(g, 2)
	sampled := BetweennessSampled(g, all, 2)
	for i := range exact {
		if math.Abs(exact[i]-sampled[i]) > 1e-6 {
			t.Fatalf("bc[%d]: %v vs %v", i, exact[i], sampled[i])
		}
	}
}

func TestBetweennessDegreeOneLeafInvariant(t *testing.T) {
	// §4.4: removing degree-1 vertices preserves BC of the others, because
	// leaves contribute no shortest paths between higher-degree vertices.
	// Here: verify a leaf has zero BC, the precondition for that claim.
	g := graph.FromEdges(5, false, []graph.Edge{
		graph.E(0, 1), graph.E(1, 2), graph.E(2, 0), graph.E(2, 3), graph.E(3, 4),
	})
	bc := Betweenness(g, 1)
	if bc[4] != 0 {
		t.Fatalf("leaf bc = %v, want 0", bc[4])
	}
}

func BenchmarkPageRankRMAT14(b *testing.B) {
	g := gen.RMAT(14, 8, 0.57, 0.19, 0.19, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRank(g, PageRankOptions{})
	}
}

func BenchmarkBetweennessSampled(b *testing.B) {
	g := gen.RMAT(11, 8, 0.57, 0.19, 0.19, 1)
	sources := make([]graph.NodeID, 32)
	for i := range sources {
		sources[i] = graph.NodeID(i * 17 % g.N())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BetweennessSampled(g, sources, 0)
	}
}

// TestPowerIteratePartitionedPull feeds the power-iteration driver the pull
// a cluster coordinator feeds it — every part recomputing the contributions
// from the broadcast rank vector and summing only its own vertex range — and
// requires PageRank's vector bit for bit at workers 1, in PageRank's number
// of iterations, however many parts the range is cut into.
func TestPowerIteratePartitionedPull(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"rmat10": gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77),
		"grid32": gen.Grid2D(32, 32, true),
	} {
		for form, adj := range map[string]graph.Adjacency{"raw": g, "packed": succinct.Pack(g, 1)} {
			one := PageRankOptions{Workers: 1}
			want := PageRank(adj, one)
			n := adj.N()
			deg := OutDegrees(adj, 1)
			for _, of := range []int{1, 2, 3, 7} {
				iters := 0
				got, err := PowerIterate(n, Dangling(deg, 0, graph.NodeID(n)), one, func(rank, sums []float64) error {
					iters++
					for part := 0; part < of; part++ {
						lo, hi := n*part/of, n*(part+1)/of
						contrib := make([]float64, n)
						Contributions(contrib, rank, deg)
						PullSums(adj, graph.NodeID(lo), graph.NodeID(hi), contrib, sums[lo:hi], nil)
					}
					return nil
				})
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("%s/%s over %d parts: err %v, vector differs from PageRank's", name, form, of, err)
				}
				capped := func(maxIter int) []float64 {
					return PageRank(adj, PageRankOptions{Workers: 1, MaxIter: maxIter})
				}
				if !slices.Equal(capped(iters), want) || slices.Equal(capped(iters-1), want) {
					t.Fatalf("%s/%s over %d parts: %d pulls is not the iteration PageRank stops at", name, form, of, iters)
				}
			}
		}
	}
}

func TestPowerIterateReturnsPullError(t *testing.T) {
	boom := errors.New("shard down")
	pulls := 0
	got, err := PowerIterate(4, nil, PageRankOptions{}, func(_, _ []float64) error {
		pulls++
		if pulls == 3 {
			return boom
		}
		return nil
	})
	if got != nil || !errors.Is(err, boom) || pulls != 3 {
		t.Fatalf("got %v, err %v after %d pulls; want nil, the pull's error, 3", got, err, pulls)
	}
}
