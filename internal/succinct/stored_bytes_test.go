package succinct

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// storedBytesInputs are the fixed graphs whose encoded bytes are pinned, here
// and in graphio's TestWritePackedOrderBytesPinned: the benchmark's two
// inputs plus a directed graph for the in-adjacency mirror.
func storedBytesInputs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"rmat14":  gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77),
		"grid128": gen.Grid2D(128, 128, true),
		"rmat12d": gen.RMATDirected(12, 8, 0.57, 0.19, 0.19, 77),
	}
}

// packedBytesPinned holds the first 8 bytes of SHA-256 over payload,
// in-payload and servable image of Pack(g, WithOrder(o)), taken on the
// commit before the list codec moved into varint.go and pack started
// relabeling through Graph.Permute. A codec or layout change moves them on
// purpose; nothing else may.
var packedBytesPinned = map[string]string{
	"grid128/bfs/weighted=false":    "87193b78775be7e8",
	"grid128/bfs/weighted=true":     "e9b452c2664417ad",
	"grid128/degree/weighted=false": "9418c177bc2f0b12",
	"grid128/degree/weighted=true":  "a63a3a240150c6a5",
	"grid128/none/weighted=false":   "7d71fdbb730d65a1",
	"grid128/none/weighted=true":    "8a5f7559f6145760",
	"grid128/window/weighted=false": "91b7de91f8b13682",
	"grid128/window/weighted=true":  "49a63bc838b64ad7",
	"rmat12d/bfs/weighted=false":    "b089c820fa4e9f38",
	"rmat12d/bfs/weighted=true":     "d85d57d54caaf552",
	"rmat12d/degree/weighted=false": "4ceea689770032ff",
	"rmat12d/degree/weighted=true":  "51d294d985e67b2c",
	"rmat12d/none/weighted=false":   "4820f30fc284a058",
	"rmat12d/none/weighted=true":    "084f74d205e5487e",
	"rmat12d/window/weighted=false": "c31ee62799d59c5f",
	"rmat12d/window/weighted=true":  "5784207725dee7ad",
	"rmat14/bfs/weighted=false":     "788cc636367d80c6",
	"rmat14/bfs/weighted=true":      "655d21d091b05222",
	"rmat14/degree/weighted=false":  "1b711dd01eedcc0a",
	"rmat14/degree/weighted=true":   "4023fe07827a6d63",
	"rmat14/none/weighted=false":    "6bfba318b8e33103",
	"rmat14/none/weighted=true":     "c9914187706044a3",
	"rmat14/window/weighted=false":  "a85b18b14160f2d0",
	"rmat14/window/weighted=true":   "782603cc5798887c",
}

func TestPackedBytesPinned(t *testing.T) {
	for name, base := range storedBytesInputs() {
		for _, weighted := range []bool{false, true} {
			g := base
			if weighted {
				g = gen.WithUniformWeights(base, 1, 9, 4)
			}
			for o := OrderNone; o <= OrderWindow; o++ {
				key := fmt.Sprintf("%s/%s/weighted=%v", name, o, weighted)
				pg := Pack(g, 2, WithOrder(o))
				h := sha256.New()
				h.Write(pg.payload)
				h.Write(pg.inPayload)
				h.Write(AppendServable(nil, pg))
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != packedBytesPinned[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
