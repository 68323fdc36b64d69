//go:build !race

package succinct

// Allocation pins for the hot accessor loops the serving layer runs per
// query: ForNeighbors streams the payload through a caller callback,
// ScanInLists decodes a range of lists into a caller buffer (warm after the
// first pass), FirstInNeighborIn decodes into nothing at all, and Degree /
// EdgeWeight are direct reads. None of them may allocate per call — a BFS
// over a packed graph touches every list once and per-call garbage would
// dominate the traversal. The bulk decoder's allocation bound sits here as
// well. Excluded under -race, whose instrumentation inflates AllocsPerRun
// and doubles what slices.Grow allocates.

import (
	"math"
	"runtime"
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

func TestHotAccessorsDoNotAllocate(t *testing.T) {
	r := rng.New(79)
	g := randomGraph(r, packCase{true, true}, 300, 3000)
	for _, o := range []Order{OrderNone, OrderDegree} {
		rg, _ := relabeled(g, o)
		pg := Pack(rg, 0)
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

// TestDeclaredLengthBoundsTheDestination pins the allocation bound of
// listFits: a reader sizes its destination from a declared length only when
// the bytes behind the header can hold that many entries, eight of them a
// byte at the densest, so it never allocates more than 32 B per payload byte
// it was handed. A 1 MiB all-zero payload under a header of 2^34 entries is
// refused without sizing anything; the longest list the same zeros do hold
// (groups of width 0: consecutive neighbors) decodes inside the bound. Each
// reading is the fewest bytes of five calls: the counter is process-wide,
// another goroutine's allocation only adds to it, and the call's own is the
// same every time.
func TestDeclaredLengthBoundsTheDestination(t *testing.T) {
	zeros := make([]byte, 1<<20)
	allocated := func(buf []byte, wantEntries int) uint64 {
		t.Helper()
		fewest := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, next := DecodeList(nil, buf, 0, 0)
			runtime.ReadMemStats(&after)
			if len(got) != wantEntries || (wantEntries == 0) != (next == 0) {
				t.Fatalf("a %d-byte payload decoded to %d entries (consumed %d), want %d", len(buf), len(got), next, wantEntries)
			}
			fewest = min(fewest, after.TotalAlloc-before.TotalAlloc)
		}
		return fewest
	}
	hostile := append(AppendUvarint(nil, 1<<34), zeros...)
	if n := allocated(hostile, 0); n > 4096 {
		t.Fatalf("refusing 2^34 declared entries allocated %d B", n)
	}
	if l := listLen(hostile, 0); l != 0 {
		t.Fatalf("listLen reports %d for a length the payload cannot hold", l)
	}
	// 1 + 8k entries in k+1 bytes behind the header: a head byte and k
	// width bytes of 0.
	const k = 1<<16 - 1
	dense := append(AppendUvarint(nil, 1+8*k), zeros[:k+1]...)
	if n := allocated(dense, 1+8*k); n > 32*uint64(len(dense))+4096 {
		t.Fatalf("decoding %d B allocated %d B, more than 32 B per payload byte", len(dense), n)
	}
	if _, next := DecodeList(nil, append(AppendUvarint(nil, 2+8*k), zeros[:k+1]...), 0, 0); next != 0 {
		t.Fatal("one entry more than the bytes can hold was accepted")
	}
}
