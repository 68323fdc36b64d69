package succinct

// Property tests for the locality-ordering layer: ComputeOrder always yields
// a valid deterministic permutation, and the kernels running on the pack of
// a relabeled graph agree with the raw CSR after mapping through the
// permutation.

import (
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

// relabeled returns g under ComputeOrder(g, o) — g itself for OrderNone —
// and the permutation (perm[old] = new): what the relabel scheme hands a
// pack, the only way an order reaches one.
func relabeled(g *graph.Graph, o Order) (*graph.Graph, []graph.NodeID) {
	perm := ComputeOrder(g, o, 0)
	if perm == nil {
		return g, nil
	}
	out, err := g.Permute(perm, 0)
	if err != nil {
		panic(err)
	}
	return out, perm
}

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

// The relabel-equivalence property behind the relabel scheme: every kernel
// run directly on the pack of a relabeled graph matches the raw CSR after
// mapping through the permutation — BFS distances and triangle counts exactly,
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
			rg, perm := relabeled(g, o)
			for _, block := range []int{16, DefaultBlockVertices} {
				for _, workers := range []int{1, 4} {
					pg := Pack(rg, workers, WithBlockVertices(block))
					bfs := traverse.BFS(pg, perm[root], 1)
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
