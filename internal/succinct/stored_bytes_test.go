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
// in-payload and servable image of Pack(g). Re-captured once, when the list
// codec moved from one LEB128 varint per gap to width-byte groups of eight
// and the images to minor ServableMinor: that moved every digest (on
// grid128, whose lists are all shorter than nine entries, through the minor
// in the image header alone). A codec or layout change moves them on
// purpose; nothing else may.
var packedBytesPinned = map[string]string{
	"grid128/weighted=false": "0d935b48389af655",
	"grid128/weighted=true":  "3cdfe295208e297e",
	"rmat12d/weighted=false": "ea8c1ed02d47fb55",
	"rmat12d/weighted=true":  "ad13513be06638fe",
	"rmat14/weighted=false":  "70702618fed33819",
	"rmat14/weighted=true":   "a23a80dc98df4912",
}

func TestPackedBytesPinned(t *testing.T) {
	for name, base := range storedBytesInputs() {
		for _, weighted := range []bool{false, true} {
			g := base
			if weighted {
				g = gen.WithUniformWeights(base, 1, 9, 4)
			}
			key := fmt.Sprintf("%s/weighted=%v", name, weighted)
			pg := Pack(g, 2)
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

// TestGapHistogramCountsThePayload pins the codec's byte accounting:
// listWidths, summed by GapHistogram under a permutation, is exactly the
// out-payload Pack builds of the graph relabeled by it — on both benchmark
// inputs, the directed pin, and directed twins of the two (every other
// canonical edge turned round), under every order.
func TestGapHistogramCountsThePayload(t *testing.T) {
	inputs := storedBytesInputs()
	for _, name := range []string{"rmat14", "grid128"} {
		inputs[name+"-directed"] = directedTwin(inputs[name])
	}
	for name, g := range inputs {
		for o := OrderNone; o <= OrderWindow; o++ {
			rg, perm := relabeled(g, o)
			pg := Pack(rg, 2)
			if h := GapHistogram(g, perm, 2); h.PayloadBytes != int64(len(pg.payload)) || h.Values() != pg.NumArcs() {
				t.Errorf("%s/%s: GapHistogram counts %d bytes and %d values, the payload has %d and %d",
					name, o, h.PayloadBytes, h.Values(), len(pg.payload), pg.NumArcs())
			}
		}
	}
}
