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
// pins. Re-captured with them, once, when the list codec moved to groups of
// eight and the compact wire form to minor succinct.CompactMinor; a refactor
// of the encoder must not move them.
var writePackedOrderPinned = map[string]string{
	"grid128/bfs/weighted=false":    "4b589997ef61afaa",
	"grid128/bfs/weighted=true":     "c12a6e51b28e9007",
	"grid128/degree/weighted=false": "f8bb5daaaba379bc",
	"grid128/degree/weighted=true":  "d9bfa8ab8d23b29a",
	"grid128/none/weighted=false":   "6a871ad37be442fc",
	"grid128/none/weighted=true":    "82c478e0a87289bc",
	"grid128/window/weighted=false": "a311cc14ef361a9f",
	"grid128/window/weighted=true":  "9510b7166a8bd6c0",
	"rmat12d/bfs/weighted=false":    "e28cd0e385339cac",
	"rmat12d/bfs/weighted=true":     "ed6f8f38e430da2e",
	"rmat12d/degree/weighted=false": "8c43f4f7d5596f33",
	"rmat12d/degree/weighted=true":  "ad6964e922a195fa",
	"rmat12d/none/weighted=false":   "09574f1dbfbd3db8",
	"rmat12d/none/weighted=true":    "957ffe0fb3e13f4e",
	"rmat12d/window/weighted=false": "af3158d487288d49",
	"rmat12d/window/weighted=true":  "2dcf47510bf84374",
	"rmat14/bfs/weighted=false":     "f4b9646108774a69",
	"rmat14/bfs/weighted=true":      "36d1a8a170444c43",
	"rmat14/degree/weighted=false":  "7df06a00b28ffb5e",
	"rmat14/degree/weighted=true":   "cfe38b1b935c1887",
	"rmat14/none/weighted=false":    "00273cc996280a13",
	"rmat14/none/weighted=true":     "b458fc1017ac96f1",
	"rmat14/window/weighted=false":  "d30caca340c64344",
	"rmat14/window/weighted=true":   "31d0627335e46523",
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
