package graphio

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// writePackedOrderPinned holds the first 8 bytes of SHA-256 over the
// WritePackedOrder snapshot of the inputs succinct's TestPackedBytesPinned
// pins, taken on the same parent commit: the v2.0 wire form must not move
// under a refactor of the encoder.
var writePackedOrderPinned = map[string]string{
	"grid128/bfs/weighted=false":    "41947d5cdd29aad3",
	"grid128/bfs/weighted=true":     "4c09289203c0dc9a",
	"grid128/degree/weighted=false": "b897b67502123a4e",
	"grid128/degree/weighted=true":  "047e82d1b2b7f94b",
	"grid128/none/weighted=false":   "da73820098ed899b",
	"grid128/none/weighted=true":    "ba61d3b1fae84cc4",
	"grid128/window/weighted=false": "8b5bebf964d98501",
	"grid128/window/weighted=true":  "389164096579c3dc",
	"rmat12d/bfs/weighted=false":    "e4f368e7190c33ac",
	"rmat12d/bfs/weighted=true":     "0fcad979a75e24ae",
	"rmat12d/degree/weighted=false": "58fb1d0daeba4938",
	"rmat12d/degree/weighted=true":  "81e097ff7b5fccaf",
	"rmat12d/none/weighted=false":   "1357ed9755af9959",
	"rmat12d/none/weighted=true":    "1ca252044a16366c",
	"rmat12d/window/weighted=false": "71e06acb36a758c9",
	"rmat12d/window/weighted=true":  "59043fc02216827a",
	"rmat14/bfs/weighted=false":     "cebb1f9139759b60",
	"rmat14/bfs/weighted=true":      "30e9a8fe699e903f",
	"rmat14/degree/weighted=false":  "17c1ec4e09557224",
	"rmat14/degree/weighted=true":   "bad20836af167ebc",
	"rmat14/none/weighted=false":    "52712894675135ff",
	"rmat14/none/weighted=true":     "fe1dbb9a8a7fe75b",
	"rmat14/window/weighted=false":  "a04994be772e2586",
	"rmat14/window/weighted=true":   "1f7962aa611c8151",
}

func TestWritePackedOrderBytesPinned(t *testing.T) {
	inputs := map[string]*graph.Graph{
		"rmat14":  gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77),
		"grid128": gen.Grid2D(128, 128, true),
		"rmat12d": gen.RMATDirected(12, 8, 0.57, 0.19, 0.19, 77),
	}
	for name, base := range inputs {
		for _, weighted := range []bool{false, true} {
			g := base
			if weighted {
				g = gen.WithUniformWeights(base, 1, 9, 4)
			}
			for o := succinct.OrderNone; o <= succinct.OrderWindow; o++ {
				key := fmt.Sprintf("%s/%s/weighted=%v", name, o, weighted)
				h := sha256.New()
				if _, err := WritePackedOrder(h, g, o); err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != writePackedOrderPinned[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}
