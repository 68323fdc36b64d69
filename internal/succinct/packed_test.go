package succinct

// Property tests pinning the PackedGraph contract: Unpack(Pack(g)) is
// graph.Equal to g across directed/undirected × weighted/unweighted random
// graphs, block sizes, and worker counts; the encoded bytes never depend on
// the worker count; and every accessor agrees with the raw CSR. The
// generators mirror internal/graph's differential_test.go.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

type packCase struct {
	directed bool
	weighted bool
}

func packCases() []packCase {
	return []packCase{{false, false}, {false, true}, {true, false}, {true, true}}
}

func (c packCase) String() string {
	return fmt.Sprintf("directed=%v,weighted=%v", c.directed, c.weighted)
}

// randomEdges draws m random edges over n vertices, including self-loops
// and duplicates so the builder's normalization paths are exercised.
func randomEdges(r *rng.Rand, n, m int, weighted bool) []graph.Edge {
	edges := make([]graph.Edge, m)
	for i := range edges {
		w := 1.0
		if weighted {
			w = float64(r.Intn(16)) / 4
		}
		edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: w}
	}
	return edges
}

func randomGraph(r *rng.Rand, c packCase, n, m int) *graph.Graph {
	edges := randomEdges(r, n, m, c.weighted)
	if c.weighted {
		return graph.FromWeightedEdges(n, c.directed, edges)
	}
	return graph.FromEdges(n, c.directed, edges)
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(31)
		for trial := 0; trial < 12; trial++ {
			n := r.Intn(200) + 1
			g := randomGraph(r, c, n, r.Intn(800))
			for _, block := range []int{1, 8, DefaultBlockVertices} {
				for _, workers := range []int{1, 2, 7} {
					pg := PackWithBlock(g, block, workers)
					if got := pg.Unpack(workers); !got.Equal(g) {
						t.Fatalf("%v trial %d block %d workers %d: unpack differs",
							c, trial, block, workers)
					}
				}
			}
		}
	}
}

func TestPackEmptyAndTinyGraphs(t *testing.T) {
	for _, c := range packCases() {
		for _, g := range []*graph.Graph{
			graph.FromEdges(0, c.directed, nil),
			graph.FromEdges(1, c.directed, nil),
			graph.FromEdges(5, c.directed, nil), // isolated vertices only
		} {
			pg := Pack(g, 0)
			if !pg.Unpack(0).Equal(g) {
				t.Fatalf("%v: degenerate graph n=%d round trip failed", c, g.N())
			}
			if pg.SizeBits() < 0 || pg.BitsPerEdge() != 0 {
				t.Fatalf("%v: degenerate stats %v", c, pg.Stats())
			}
		}
	}
}

// The encoded sections must be bit-identical for every worker count — the
// engine's reproducibility contract extended to storage.
func TestPackDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(37)
		g := randomGraph(r, c, 300, 4000)
		base := Pack(g, 1)
		for _, workers := range []int{2, 3, 8} {
			pg := Pack(g, workers)
			if !reflect.DeepEqual(base.payload, pg.payload) ||
				!reflect.DeepEqual(base.blockOff, pg.blockOff) ||
				!reflect.DeepEqual(base.rel, pg.rel) ||
				!reflect.DeepEqual(base.inPayload, pg.inPayload) ||
				!reflect.DeepEqual(base.edgeStart, pg.edgeStart) ||
				!reflect.DeepEqual(base.weights, pg.weights) {
				t.Fatalf("%v: pack with %d workers differs from serial", c, workers)
			}
		}
		s1 := EncodeStored(g, 1)
		for _, workers := range []int{2, 5} {
			if !reflect.DeepEqual(s1, EncodeStored(g, workers)) {
				t.Fatalf("%v: stored sections with %d workers differ from serial", c, workers)
			}
		}
	}
}

func TestAccessorsMatchGraph(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(41)
		g := randomGraph(r, c, 120, 900)
		pg := PackWithBlock(g, 16, 0)
		if pg.N() != g.N() || pg.M() != g.M() || pg.Directed() != g.Directed() ||
			pg.Weighted() != g.Weighted() || pg.NumArcs() != g.NumArcs() {
			t.Fatalf("%v: shape mismatch: %v vs %v", c, pg, g)
		}
		// Sets for the early-exit probe: empty, sparse, and all but vertex 0.
		sets := []*bitset.Bits{bitset.New(g.N()), bitset.New(g.N()), bitset.New(g.N())}
		for v := 1; v < g.N(); v++ {
			if v%9 == 0 {
				sets[1].Set(v)
			}
			sets[2].Set(v)
		}
		var buf []graph.NodeID
		for v := 0; v < g.N(); v++ {
			id := graph.NodeID(v)
			if pg.Degree(id) != g.Degree(id) || pg.InDegree(id) != g.InDegree(id) {
				t.Fatalf("%v: degree mismatch at %d", c, v)
			}
			for i, set := range sets {
				want := graph.NodeID(-1)
				if j := slices.IndexFunc(g.InNeighbors(id), func(u graph.NodeID) bool { return set.Get(int(u)) }); j >= 0 {
					want = g.InNeighbors(id)[j]
				}
				if got, raw := pg.FirstInNeighborIn(id, set), g.FirstInNeighborIn(id, set); got != want || raw != want {
					t.Fatalf("%v: first in-neighbor of %d in set %d: packed %d, raw %d, want %d", c, v, i, got, raw, want)
				}
			}
			want := g.Neighbors(id)
			buf = pg.Neighbors(buf[:0], id)
			if len(buf) != len(want) {
				t.Fatalf("%v: neighbors of %d: got %v want %v", c, v, buf, want)
			}
			i := 0
			pg.ForNeighbors(id, func(w graph.NodeID) {
				if want[i] != w || buf[i] != w {
					t.Fatalf("%v: neighbor %d of %d: got %d want %d", c, i, v, w, want[i])
				}
				i++
			})
			if i != len(want) {
				t.Fatalf("%v: ForNeighbors visited %d of %d", c, i, len(want))
			}
			pg.ScanInLists(id, id+1, nil, func(u graph.NodeID, got []graph.NodeID) {
				if u != id || !slices.Equal(got, g.InNeighbors(id)) {
					t.Fatalf("%v: in-neighbors of %d: got %v (as vertex %d) want %v", c, v, got, u, g.InNeighbors(id))
				}
			})
		}
		for e := 0; e < g.M(); e++ {
			if pg.EdgeWeight(graph.EdgeID(e)) != g.EdgeWeight(graph.EdgeID(e)) {
				t.Fatalf("%v: weight mismatch at edge %d", c, e)
			}
		}
	}
}

// inLists is the per-vertex reference ScanInLists is checked against: the
// transposed ForNeighbors lists (u ascending, so each in-list is too).
func inLists(a graph.Adjacency) [][]graph.NodeID {
	in := make([][]graph.NodeID, a.N())
	for u := 0; u < a.N(); u++ {
		a.ForNeighbors(graph.NodeID(u), func(w graph.NodeID) { in[w] = append(in[w], graph.NodeID(u)) })
	}
	return in
}

// checkScanInLists scans [lo, hi) and requires exactly the vertices of the
// range, ascending, each with its reference in-list.
func checkScanInLists(t *testing.T, name string, a graph.Adjacency, want [][]graph.NodeID, lo, hi graph.NodeID, buf []graph.NodeID) []graph.NodeID {
	t.Helper()
	next := lo
	buf = a.ScanInLists(lo, hi, buf, func(v graph.NodeID, nbrs []graph.NodeID) {
		if v != next || v >= hi {
			t.Fatalf("%s [%d, %d): visited %d, want %d", name, lo, hi, v, next)
		}
		if !slices.Equal(nbrs, want[v]) {
			t.Fatalf("%s [%d, %d): in-list of %d = %v, want %v", name, lo, hi, v, nbrs, want[v])
		}
		next++
	})
	if next != max(lo, hi) {
		t.Fatalf("%s [%d, %d): scan stopped at %d", name, lo, hi, next)
	}
	return buf
}

// ScanInLists must hand out, list by list, what the per-vertex accessors
// do — on the raw CSR and on packs of every block size, in the graph's own
// IDs and degree-relabeled — for empty ranges, ranges inside one block,
// ranges straddling blocks, and a vertex count that is not a multiple of
// the block size.
func TestScanInListsMatchesPerVertexLists(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(53)
		const n = 157
		g := randomGraph(r, c, n, 1100)
		want := inLists(g)
		for v := range want {
			if !slices.Equal(want[v], g.InNeighbors(graph.NodeID(v))) {
				t.Fatalf("%v: transposed ForNeighbors disagrees with InNeighbors at %d", c, v)
			}
		}
		type rep struct {
			name  string
			a     graph.Adjacency
			want  [][]graph.NodeID
			block graph.NodeID
		}
		reps := []rep{{"raw", g, want, 64}}
		for _, block := range []int{4, 16, DefaultBlockVertices} {
			for _, o := range []Order{OrderNone, OrderDegree} {
				rg, _ := relabeled(g, o)
				pg := Pack(rg, 0, WithBlockVertices(block))
				w := want
				if o != OrderNone {
					w = inLists(rg) // the relabeled ID space
				}
				reps = append(reps, rep{fmt.Sprintf("%v block=%d order=%s", c, block, o), pg, w, graph.NodeID(block)})
			}
		}
		for _, p := range reps {
			b := p.block
			ranges := [][2]graph.NodeID{
				{0, 0}, {n, n}, {5, 5}, {9, 3}, // empty
				{0, n}, {0, 1}, {n - 1, n}, // whole graph and its ends
				{1, b - 1}, {0, b}, // inside one block
				{b - 1, b + 1}, {b / 2, min(2*b+b/2, n)}, {b, n}, // straddling
				{n - n%b - 1, n}, // into the short last block
			}
			for i := 0; i < 40; i++ {
				lo := graph.NodeID(r.Intn(n + 1))
				ranges = append(ranges, [2]graph.NodeID{lo, lo + graph.NodeID(r.Intn(n+1-int(lo)))})
			}
			var buf []graph.NodeID // reused across scans, like a kernel's
			for _, rg := range ranges {
				buf = checkScanInLists(t, p.name, p.a, p.want, rg[0], rg[1], buf)
			}
		}
	}
}

// A list that does not decode reads as empty and the scan carries on from
// the directory: memory safety on an unverified image must not cost the
// rest of the range.
func TestScanInListsSkipsCorruptList(t *testing.T) {
	r := rng.New(59)
	g := randomGraph(r, packCase{}, 90, 2400)
	pg := Pack(g, 0, WithBlockVertices(16))
	want := inLists(pg)
	const victim = 41
	if pg.Degree(victim) < 12 {
		t.Fatalf("vertex %d has degree %d; the case needs a list of 12+ bytes", victim, pg.Degree(victim))
	}
	bad := *pg
	bad.payload = slices.Clone(pg.payload)
	// Ten continuation bytes where the first neighbor should be: an
	// overlong varint no decoder accepts.
	for i := 1; i <= MaxVarintLen; i++ {
		bad.payload[bad.start(victim)+i] = 0x80
	}
	want[victim] = nil
	for _, rg := range [][2]graph.NodeID{{0, 90}, {victim, victim + 1}, {victim - 3, victim + 3}, {30, victim + 1}} {
		checkScanInLists(t, "corrupt", &bad, want, rg[0], rg[1], nil)
	}
}

// Every accessor must read a list that does not decode the way ScanInLists
// does — as empty — instead of inventing neighbors out of the bytes it could
// not decode, or looping for as long as the length header says.
func TestAccessorsReadCorruptListAsEmpty(t *testing.T) {
	r := rng.New(59)
	g := randomGraph(r, packCase{}, 90, 2400)
	pg := Pack(g, 0, WithBlockVertices(16))
	const victim = 41
	if pg.Degree(victim) < 12 {
		t.Fatalf("vertex %d has degree %d; the case needs a list of 12+ bytes", victim, pg.Degree(victim))
	}
	all := bitset.New(pg.N())
	for v := 0; v < pg.N(); v++ {
		all.Set(v)
	}
	cases := map[string]struct {
		corrupt    func(list []byte)
		wantDegree int // Degree sees the header alone
	}{
		// Ten continuation bytes where the first neighbor should be.
		"overlong head": {func(list []byte) {
			for i := 1; i <= MaxVarintLen; i++ {
				list[i] = 0x80
			}
		}, pg.Degree(victim)},
		// A length header declaring 2^34 entries.
		"length beyond the payload": {func(list []byte) {
			copy(list, []byte{0x80, 0x80, 0x80, 0x80, 0x40})
		}, 0},
	}
	for name, c := range cases {
		bad := *pg
		bad.payload = slices.Clone(pg.payload)
		c.corrupt(bad.payload[bad.start(victim):])
		if d := bad.Degree(victim); d != c.wantDegree {
			t.Fatalf("%s: Degree = %d, want %d", name, d, c.wantDegree)
		}
		if d := bad.InDegree(victim); d != c.wantDegree {
			t.Fatalf("%s: InDegree = %d, want %d", name, d, c.wantDegree)
		}
		bad.ForNeighbors(victim, func(w graph.NodeID) {
			t.Fatalf("%s: ForNeighbors delivered %d", name, w)
		})
		if nb := bad.Neighbors(nil, victim); len(nb) != 0 {
			t.Fatalf("%s: Neighbors = %v", name, nb)
		}
		bad.ScanInLists(victim, victim+1, nil, func(_ graph.NodeID, nb []graph.NodeID) {
			if len(nb) != 0 {
				t.Fatalf("%s: ScanInLists = %v", name, nb)
			}
		})
		if w := bad.FirstInNeighborIn(victim, all); w != -1 {
			t.Fatalf("%s: FirstInNeighborIn = %d", name, w)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	r := rng.New(47)
	g := randomGraph(r, packCase{false, true}, 400, 6000)
	pg := Pack(g, 0)
	s := pg.Stats()
	if s.SizeBits != pg.SizeBits() {
		t.Fatalf("Stats.SizeBits %d != SizeBits() %d", s.SizeBits, pg.SizeBits())
	}
	if got := s.PayloadBytes*8 + s.DirectoryBits + s.WeightBytes*8; got != s.SizeBits {
		t.Fatalf("components %d do not sum to SizeBits %d", got, s.SizeBits)
	}
	if s.RawCSRBits <= s.SizeBits {
		t.Fatalf("packed (%d bits) not smaller than raw CSR (%d bits)", s.SizeBits, s.RawCSRBits)
	}
	if s.BitsPerEdge <= 0 {
		t.Fatalf("BitsPerEdge %v", s.BitsPerEdge)
	}
}

// PackWithBlock is Pack with an explicit vertex-block size.
func PackWithBlock(g *graph.Graph, blockVertices, workers int) *PackedGraph {
	return Pack(g, workers, WithBlockVertices(blockVertices))
}
