package succinct

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"slimgraph/internal/centrality"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// readPathDigests pins what the read queries answer on four graphs: BFS
// distances at workers 1 and 3 and the one-worker parent tree from four
// roots, PageRank's bits, and DOULION estimates at two probabilities and
// workers 1 and 3 (undirected graphs only). The digests were taken before
// BFS switched direction from a running arc count, PageRank's in-lists were
// decoded into place and DOULION flipped its coins inside the canonical
// scan; each of those changes must answer the same bits.
var readPathDigests = map[string]string{
	"rmat14":  "d1dad1e8232e83c5",
	"grid128": "8a9de0d9b547d6e4",
	"rmat10":  "34e701bc063ff6e1",
	"rmat12d": "00b20dd495108507",
}

func readPathDigest(a graph.AdjacencyEdges) string {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	n := a.N()
	for _, root := range []graph.NodeID{0, graph.NodeID(n / 3), graph.NodeID(n / 2), graph.NodeID(n - 1)} {
		for _, workers := range []int{1, 3} {
			res := traverse.BFS(a, root, workers)
			for _, d := range res.Dist {
				put(uint64(uint32(d)))
			}
			if workers == 1 {
				for _, p := range res.Parent {
					put(uint64(uint32(p)))
				}
			}
		}
	}
	for _, r := range centrality.PageRank(a, centrality.PageRankOptions{Workers: 1}) {
		put(math.Float64bits(r))
	}
	if !a.Directed() {
		for _, p := range []float64{0.1, 0.5} {
			for _, workers := range []int{1, 3} {
				put(math.Float64bits(triangles.CountApprox(a, p, 11, workers)))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestReadPathDigestsPinned(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"rmat14":  gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77),
		"grid128": gen.Grid2D(128, 128, true),
		"rmat10":  gen.RMAT(10, 8, 0.57, 0.19, 0.19, 77),
		"rmat12d": gen.RMATDirected(12, 8, 0.57, 0.19, 0.19, 77),
	}
	for name, g := range graphs {
		for rep, a := range map[string]graph.AdjacencyEdges{"raw": g, "packed": Pack(g, 0)} {
			if got := readPathDigest(a); got != readPathDigests[name] {
				t.Errorf("%s %s: read-path digest %s, want %s", name, rep, got, readPathDigests[name])
			}
		}
	}
}
