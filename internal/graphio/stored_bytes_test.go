package graphio

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// writePackedPinned holds the first 8 bytes of SHA-256 over the WritePacked
// snapshot of the inputs succinct's TestPackedBytesPinned pins. Re-captured
// with them, once, when the list codec moved to groups of eight and the
// compact wire form to minor succinct.CompactMinor; a refactor of the
// encoder must not move them.
var writePackedPinned = map[string]string{
	"grid128/weighted=false": "6a871ad37be442fc",
	"grid128/weighted=true":  "82c478e0a87289bc",
	"rmat12d/weighted=false": "09574f1dbfbd3db8",
	"rmat12d/weighted=true":  "957ffe0fb3e13f4e",
	"rmat14/weighted=false":  "00273cc996280a13",
	"rmat14/weighted=true":   "b458fc1017ac96f1",
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
			key := fmt.Sprintf("%s/weighted=%v", name, weighted)
			h := sha256.New()
			if _, err := WritePacked(h, g); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != writePackedPinned[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}
