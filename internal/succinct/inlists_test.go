package succinct

import (
	"path/filepath"
	"slices"
	"testing"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/rng"
)

// checkInLists requires off/nbrs to be a CSR of n lists equal to want.
func checkInLists(t *testing.T, name string, off []int64, nbrs []graph.NodeID, want [][]graph.NodeID) {
	t.Helper()
	if len(off) != len(want)+1 || off[0] != 0 || off[len(want)] != int64(len(nbrs)) {
		t.Fatalf("%s: %d offsets from %d to %d over %d neighbors, want %d lists", name, len(off), off[0], off[len(off)-1], len(nbrs), len(want))
	}
	for v := range want {
		if got := nbrs[off[v]:off[v+1]]; !slices.Equal(got, want[v]) {
			t.Fatalf("%s: in-list of %d = %v, want %v", name, v, got, want[v])
		}
	}
}

// graph.InListsOf decodes a packed graph and its mapping into exactly the
// raw CSR's in-lists — directed and undirected, at any worker count, with a
// vertex count that is not a multiple of the block size.
func TestInListsOfMatchesCSR(t *testing.T) {
	dir := t.TempDir()
	for _, c := range packCases() {
		r := rng.New(61)
		const n = 157
		g := randomGraph(r, c, n, 1100)
		want := make([][]graph.NodeID, n)
		for v := range want {
			want[v] = g.InNeighbors(graph.NodeID(v))
		}
		pg := Pack(g, 0, WithBlockVertices(16))
		path := filepath.Join(dir, c.String()+".slim")
		writeServableFile(t, path, pg)
		m, err := OpenPacked(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		for name, a := range map[string]graph.Adjacency{"packed": pg, "mapped": m} {
			for _, workers := range []int{1, 2, 7} {
				off, nbrs, owned := graph.InListsOf(a, workers)
				if !owned {
					t.Fatalf("%v %s workers=%d: a decode reported as borrowed", c, name, workers)
				}
				checkInLists(t, c.String()+" "+name, off, nbrs, want)
			}
		}
	}
}

// FuzzInListsOfDamaged flips bytes of the payload the in-lists are read from
// and holds graph.InListsOf to what ScanInLists hands out over the same
// vertex blocks, list by list: a damaged list reads exactly as a scan reads
// it — empty when it does not decode — and the decode never panics.
func FuzzInListsOfDamaged(f *testing.F) {
	f.Add(false, uint8(1), []byte{})
	f.Add(true, uint8(2), []byte{0x00, 0x10, 0xff})
	f.Add(false, uint8(3), []byte{0x00, 0x00, 0x80, 0x01, 0x20, 0x7f})
	f.Add(true, uint8(7), []byte{0x02, 0x00, 0x01, 0x03, 0x00, 0x40, 0x04, 0x11, 0x80})
	packed := map[bool]*PackedGraph{}
	for _, directed := range []bool{false, true} {
		packed[directed] = Pack(randomGraph(rng.New(71), packCase{directed: directed}, 157, 1100), 0, WithBlockVertices(16))
	}
	f.Fuzz(func(t *testing.T, directed bool, w uint8, flips []byte) {
		pg := new(PackedGraph)
		*pg = *packed[directed]
		payload := &pg.payload
		if directed {
			payload = &pg.inPayload
		}
		*payload = slices.Clone(*payload)
		for i := 0; i+2 < len(flips); i += 3 {
			(*payload)[(int(flips[i])<<8|int(flips[i+1]))%len(*payload)] ^= flips[i+2]
		}
		workers, n := int(w%8)+1, pg.N()
		want := make([][]graph.NodeID, n)
		blocks := parallel.Blocks(n, 0, workers)
		for b := 0; b < blocks; b++ {
			lo, hi := parallel.BlockRange(n, blocks, b)
			pg.ScanInLists(graph.NodeID(lo), graph.NodeID(hi), nil, func(v graph.NodeID, nbrs []graph.NodeID) {
				want[v] = slices.Clone(nbrs)
			})
		}
		off, nbrs, _ := graph.InListsOf(pg, workers)
		checkInLists(t, "damaged", off, nbrs, want)
	})
}
