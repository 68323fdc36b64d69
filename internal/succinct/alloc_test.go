//go:build !race

package succinct

// Allocation pins for the hot accessor loops the serving layer runs per
// query: ForNeighbors streams the payload through a caller callback,
// ScanInLists decodes a range of lists into a caller buffer (warm after the
// first pass), FirstInNeighborIn decodes into nothing at all, and Degree /
// EdgeWeight are direct reads. None of them may allocate per call — a BFS
// over a packed graph touches every list once and per-call garbage would
// dominate the traversal. Excluded under -race, whose instrumentation
// inflates AllocsPerRun.

import (
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

func TestHotAccessorsDoNotAllocate(t *testing.T) {
	r := rng.New(79)
	g := randomGraph(r, packCase{true, true}, 300, 3000)
	for _, o := range []Order{OrderNone, OrderDegree} {
		pg := Pack(g, 0, WithOrder(o))
		var sink graph.NodeID
		fn := func(w graph.NodeID) { sink += w }
		v := graph.NodeID(0)
		step := func() graph.NodeID {
			v = (v + 1) % graph.NodeID(pg.N())
			return v
		}
		check := func(name string, f func()) {
			t.Helper()
			if avg := testing.AllocsPerRun(200, f); avg != 0 {
				t.Errorf("order %s: %s allocates %.1f times per call", o, name, avg)
			}
		}
		check("ForNeighbors", func() { pg.ForNeighbors(step(), fn) })
		var buf []graph.NodeID
		scan := func(_ graph.NodeID, nbrs []graph.NodeID) { sink += graph.NodeID(len(nbrs)) }
		buf = pg.ScanInLists(0, graph.NodeID(pg.N()), buf, scan)
		check("ScanInLists", func() {
			u := step()
			buf = pg.ScanInLists(u, min(u+70, graph.NodeID(pg.N())), buf, scan)
		})
		set := bitset.New(pg.N())
		for i := 0; i < pg.N(); i += 7 {
			set.Set(i)
		}
		check("FirstInNeighborIn", func() { sink += pg.FirstInNeighborIn(step(), set) })
		check("Degree/InDegree/EdgeWeight", func() {
			u := step()
			sink += graph.NodeID(pg.Degree(u) + pg.InDegree(u))
			sink += graph.NodeID(pg.EdgeWeight(graph.EdgeID(int(u) % pg.M())))
		})
		if sink == graph.NodeID(0x7fffffff) {
			t.Log(sink) // keep the accumulator live
		}
	}
}
