package succinct

// Property tests for the locality-ordering layer: ComputeOrder always yields
// a valid deterministic permutation; ordered packs round-trip losslessly for
// every order × block size × worker count with byte-identical sections; the
// kernels running on a relabeled pack agree with the raw CSR after inverse
// mapping; and a stored permutation that is not a bijection of the right
// length is rejected (table cases plus a fuzz target over the perm bytes).

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/rng"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

func relabelOrders() []Order { return []Order{OrderDegree, OrderBFS, OrderWindow} }

func TestComputeOrderIsValidAndDeterministic(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(53)
		for trial := 0; trial < 6; trial++ {
			n := r.Intn(300) + 1
			g := randomGraph(r, c, n, r.Intn(1500))
			if ComputeOrder(g, OrderNone, 0) != nil {
				t.Fatalf("%v: OrderNone must return the nil identity", c)
			}
			for _, o := range relabelOrders() {
				perm := ComputeOrder(g, o, 1)
				if err := graph.ValidatePermutation(g.N(), perm); err != nil {
					t.Fatalf("%v trial %d order %s: %v", c, trial, o, err)
				}
				for _, workers := range []int{2, 7} {
					if !reflect.DeepEqual(perm, ComputeOrder(g, o, workers)) {
						t.Fatalf("%v trial %d order %s: permutation depends on %d workers",
							c, trial, o, workers)
					}
				}
			}
		}
	}
}

func TestOrderedPackRoundTrip(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(59)
		for trial := 0; trial < 8; trial++ {
			n := r.Intn(250) + 1
			g := randomGraph(r, c, n, r.Intn(1000))
			for _, o := range append(relabelOrders(), OrderNone) {
				for _, block := range []int{8, DefaultBlockVertices} {
					pg := Pack(g, 3, WithOrder(o), WithBlockVertices(block))
					if pg.Order() != o {
						t.Fatalf("%v: Order() = %s, packed with %s", c, pg.Order(), o)
					}
					if (pg.Perm() == nil) != (o == OrderNone) {
						t.Fatalf("%v order %s: Perm() nil-ness wrong", c, o)
					}
					if got := pg.Unpack(2); !got.Equal(g) {
						t.Fatalf("%v trial %d order %s block %d: unpack differs",
							c, trial, o, block)
					}
					for v := 0; v < g.N(); v++ {
						id := graph.NodeID(v)
						if pg.OriginalID(pg.PackedID(id)) != id {
							t.Fatalf("%v order %s: OriginalID∘PackedID(%d) != identity", c, o, v)
						}
					}
				}
			}
		}
	}
}

// Ordered pack sections — including the recorded permutation — must be
// byte-identical for every worker count, and so must the stored snapshot
// sections EncodeStoredOrder produces.
func TestOrderedPackDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(61)
		g := randomGraph(r, c, 300, 3000)
		for _, o := range relabelOrders() {
			base := Pack(g, 1, WithOrder(o))
			for _, workers := range []int{2, 3, 8} {
				pg := Pack(g, workers, WithOrder(o))
				if !reflect.DeepEqual(base.perm, pg.perm) ||
					!reflect.DeepEqual(base.payload, pg.payload) ||
					!reflect.DeepEqual(base.blockOff, pg.blockOff) ||
					!reflect.DeepEqual(base.edgeStart, pg.edgeStart) ||
					!reflect.DeepEqual(base.weights, pg.weights) {
					t.Fatalf("%v order %s: pack with %d workers differs from serial", c, o, workers)
				}
			}
			s1, w1 := EncodeStoredOrder(g, o, 1)
			for _, workers := range []int{2, 5} {
				s, w := EncodeStoredOrder(g, o, workers)
				if !reflect.DeepEqual(s1, s) || !reflect.DeepEqual(w1, w) {
					t.Fatalf("%v order %s: stored sections with %d workers differ from serial",
						c, o, workers)
				}
			}
		}
	}
}

// The relabel-equivalence property behind the serving guarantee: every
// kernel run directly on a relabeled pack matches the raw CSR after mapping
// through the permutation — BFS distances and triangle counts exactly,
// PageRank to float-summation tolerance (the relabel reorders the
// accumulation), degree distributions exactly (a permutation preserves the
// degree multiset). Holds for every worker count and block size.
func TestKernelsOnRelabeledPackMatchRaw(t *testing.T) {
	for _, c := range packCases() {
		r := rng.New(67)
		g := randomGraph(r, c, 180, 1400)
		root := graph.NodeID(3)
		rawBFS := traverse.BFS(g, root, 1)
		var rawTri int64
		if !c.directed { // the triangle engine requires symmetrized input
			rawTri = triangles.Count(g, 2)
		}
		rawDeg := metrics.DegreeDistribution(g)
		rawPR := centrality.PageRank(g, centrality.PageRankOptions{Workers: 1})
		for _, o := range relabelOrders() {
			for _, block := range []int{16, DefaultBlockVertices} {
				for _, workers := range []int{1, 4} {
					pg := Pack(g, workers, WithOrder(o), WithBlockVertices(block))
					perm := pg.Perm()
					bfs := traverse.BFS(pg, pg.PackedID(root), 1)
					for v := 0; v < g.N(); v++ {
						if bfs.Dist[perm[v]] != rawBFS.Dist[v] {
							t.Fatalf("%v order %s: BFS dist of %d: packed %d raw %d",
								c, o, v, bfs.Dist[perm[v]], rawBFS.Dist[v])
						}
					}
					if !c.directed {
						if tri := triangles.Count(pg, workers); tri != rawTri {
							t.Fatalf("%v order %s block %d workers %d: triangles %d, raw %d",
								c, o, block, workers, tri, rawTri)
						}
					}
					if deg := metrics.DegreeDistribution(pg); !reflect.DeepEqual(deg, rawDeg) {
						t.Fatalf("%v order %s: degree distribution differs under relabel", c, o)
					}
					pr := centrality.PageRank(pg, centrality.PageRankOptions{Workers: 1})
					for v := 0; v < g.N(); v++ {
						if d := math.Abs(pr[perm[v]] - rawPR[v]); d > 1e-10 {
							t.Fatalf("%v order %s: PageRank of %d drifts by %g", c, o, v, d)
						}
					}
				}
			}
		}
	}
}

// corruptPerm returns a copy of s with its permutation replaced.
func withPerm(s *Sections, perm []graph.NodeID) *Sections {
	s2 := *s
	s2.Perm = perm
	return &s2
}

func TestDecodeStoredRejectsBadPermutation(t *testing.T) {
	r := rng.New(71)
	g := randomGraph(r, packCase{false, true}, 64, 400)
	s, weights := EncodeStoredOrder(g, OrderDegree, 0)
	decode := func(s *Sections) (*graph.Graph, error) {
		return DecodeStored(g.N(), g.M(), g.Directed(), g.Weighted(), s, weights, 2)
	}
	if dec, err := decode(s); err != nil || !dec.Equal(g) {
		t.Fatalf("control decode failed: %v", err)
	}
	mutate := func(f func(p []graph.NodeID) []graph.NodeID) []graph.NodeID {
		p := append([]graph.NodeID(nil), s.Perm...)
		return f(p)
	}
	bad := map[string][]graph.NodeID{
		"truncated": mutate(func(p []graph.NodeID) []graph.NodeID { return p[:len(p)-1] }),
		"empty":     {},
		"duplicate": mutate(func(p []graph.NodeID) []graph.NodeID { p[0] = p[1]; return p }),
		"out-of-range": mutate(func(p []graph.NodeID) []graph.NodeID {
			p[0] = graph.NodeID(g.N())
			return p
		}),
		"negative": mutate(func(p []graph.NodeID) []graph.NodeID { p[0] = -1; return p }),
	}
	for name, perm := range bad {
		if _, err := decode(withPerm(s, perm)); err == nil {
			t.Errorf("%s permutation accepted", name)
		}
	}
}

// FuzzStoredPermutation feeds arbitrary bytes as the stored permutation
// section of an otherwise valid packed snapshot: DecodeStored must never
// panic, and any successful decode implies the permutation was a genuine
// bijection yielding the declared shape.
func FuzzStoredPermutation(f *testing.F) {
	r := rng.New(73)
	g := randomGraph(r, packCase{false, true}, 24, 90)
	s, weights := EncodeStoredOrder(g, OrderBFS, 0)
	valid := make([]byte, 4*len(s.Perm))
	for i, p := range s.Perm {
		binary.LittleEndian.PutUint32(valid[i*4:], uint32(p))
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-4])
	f.Add(valid[:3])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		perm := make([]graph.NodeID, len(data)/4)
		for i := range perm {
			perm[i] = graph.NodeID(binary.LittleEndian.Uint32(data[i*4:]))
		}
		dec, err := DecodeStored(g.N(), g.M(), g.Directed(), g.Weighted(), withPerm(s, perm), weights, 1)
		if err != nil {
			return
		}
		if err := graph.ValidatePermutation(g.N(), perm); err != nil {
			t.Fatalf("decode accepted an invalid permutation: %v", err)
		}
		if dec.N() != g.N() || dec.M() != g.M() {
			t.Fatalf("decode under a valid permutation changed shape: n=%d m=%d, want n=%d m=%d",
				dec.N(), dec.M(), g.N(), g.M())
		}
	})
}
