package graph_test

import (
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

func TestPartitionCoversDisjointly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		for _, parts := range []int{1, 3, 4, 16} {
			g := gen.ErdosRenyi(n, 4*n, uint64(n+1))
			ranges := graph.PartitionByDegree(g, parts)
			if len(ranges) != parts {
				t.Fatalf("n=%d parts=%d: got %d ranges", n, parts, len(ranges))
			}
			prevHi := int32(0)
			covered := 0
			for i, r := range ranges {
				if r.Lo != prevHi {
					t.Fatalf("n=%d parts=%d rank=%d: gap at %d", n, parts, i, r.Lo)
				}
				// What one rank derives from (rank, parts) alone.
				cut := graph.DegreeCuts(g, parts)
				if own := (graph.Range{Lo: cut(i), Hi: cut(i + 1)}); own != r {
					t.Fatalf("n=%d parts=%d rank=%d: derived alone %+v, in the partition %+v", n, parts, i, own, r)
				}
				covered += r.Len()
				prevHi = r.Hi
			}
			if covered != g.N() || int(prevHi) != g.N() {
				t.Fatalf("n=%d parts=%d: covered %d of %d", n, parts, covered, g.N())
			}
		}
	}
}

func TestPartitionBalancesArcs(t *testing.T) {
	// A BA graph is skewed; a degree-aware split must still balance arcs
	// far better than the worst case of all mass in one range.
	g := gen.BarabasiAlbert(2000, 4, 11)
	const parts = 8
	ranges := graph.PartitionByDegree(g, parts)
	var total int64
	maxPart := int64(0)
	for _, r := range ranges {
		var arcs int64
		for v := r.Lo; v < r.Hi; v++ {
			arcs += int64(g.Degree(v))
		}
		total += arcs
		if arcs > maxPart {
			maxPart = arcs
		}
	}
	if total == 0 {
		t.Fatal("no arcs")
	}
	// Perfect balance is total/parts; allow 2x skew (one heavy vertex can
	// force it), which still rules out degenerate splits.
	if maxPart > 2*total/parts {
		t.Fatalf("heaviest part holds %d of %d arcs across %d parts", maxPart, total, parts)
	}
}

func TestPartitionWorksOnPackedGraph(t *testing.T) {
	// The partitioner consumes Adjacency only: a packed graph must produce
	// the identical split without an Unpack call.
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	pg := succinct.Pack(g, 1)
	raw := graph.PartitionByDegree(g, 5)
	packed := graph.PartitionByDegree(pg, 5)
	for i := range raw {
		if raw[i] != packed[i] {
			t.Fatalf("range %d: raw %+v packed %+v", i, raw[i], packed[i])
		}
	}
}
