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
// in-payload and servable image of Pack(g, WithOrder(o)). Re-captured once,
// when the list codec moved from one LEB128 varint per gap to width-byte
// groups of eight and the images to minor ServableMinor: that moved every
// digest (on grid128, whose lists are all shorter than nine entries, through
// the minor in the image header alone). A codec or layout change moves them
// on purpose; nothing else may.
var packedBytesPinned = map[string]string{
	"grid128/bfs/weighted=false":    "1293a89d4db02071",
	"grid128/bfs/weighted=true":     "7d7c92abbc6fe462",
	"grid128/degree/weighted=false": "49844157caaf7e87",
	"grid128/degree/weighted=true":  "662d10e62d22173d",
	"grid128/none/weighted=false":   "0d935b48389af655",
	"grid128/none/weighted=true":    "3cdfe295208e297e",
	"grid128/window/weighted=false": "dbde632342583736",
	"grid128/window/weighted=true":  "6b42c93c429dc3e2",
	"rmat12d/bfs/weighted=false":    "223091f105bc7b19",
	"rmat12d/bfs/weighted=true":     "1a3e3cab61db49c5",
	"rmat12d/degree/weighted=false": "c8ae48e4014a32cd",
	"rmat12d/degree/weighted=true":  "68b7bb7b28d81fcb",
	"rmat12d/none/weighted=false":   "ea8c1ed02d47fb55",
	"rmat12d/none/weighted=true":    "ad13513be06638fe",
	"rmat12d/window/weighted=false": "24faa9bfd981b8ef",
	"rmat12d/window/weighted=true":  "f90fe205c0ae25c9",
	"rmat14/bfs/weighted=false":     "b8eeeca0ad448003",
	"rmat14/bfs/weighted=true":      "a746373f5f218728",
	"rmat14/degree/weighted=false":  "7d06bfc6b521f312",
	"rmat14/degree/weighted=true":   "9d16807302853aec",
	"rmat14/none/weighted=false":    "70702618fed33819",
	"rmat14/none/weighted=true":     "a23a80dc98df4912",
	"rmat14/window/weighted=false":  "40eb45344e716311",
	"rmat14/window/weighted=true":   "d3c746865f40a7d9",
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

// TestGapHistogramCountsThePayload pins the codec's byte accounting:
// listWidths, summed by GapHistogram, is exactly the out-payload Pack
// builds — on both benchmark inputs, the directed pin, and directed twins of
// the two (every other canonical edge turned round).
func TestGapHistogramCountsThePayload(t *testing.T) {
	inputs := storedBytesInputs()
	for _, name := range []string{"rmat14", "grid128"} {
		inputs[name+"-directed"] = directedTwin(inputs[name])
	}
	for name, g := range inputs {
		for o := OrderNone; o <= OrderWindow; o++ {
			pg := Pack(g, 2, WithOrder(o))
			if h := GapHistogram(g, pg.Perm(), 2); h.PayloadBytes != int64(len(pg.payload)) || h.Values() != pg.NumArcs() {
				t.Errorf("%s/%s: GapHistogram counts %d bytes and %d values, the payload has %d and %d",
					name, o, h.PayloadBytes, h.Values(), len(pg.payload), pg.NumArcs())
			}
		}
	}
}
