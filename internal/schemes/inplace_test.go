package schemes

import (
	"os"
	"path/filepath"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// TestInPlaceCompressEqualsRaw pins the in-place edge-kernel path: Apply on
// a PackedGraph and on an OpenPacked mapping of its servable image returns a
// graph Equal to Apply on the raw CSR, for every edge-kernel scheme and a
// pipeline that starts with one, on directed and undirected, weighted and
// unweighted inputs at 1, 2 and 7 workers — and never unpacks the input. The
// pipeline's tr-eo stage is bit-repeatable only at one worker (Scheme.Apply)
// and has no directed form, so it runs on undirected inputs at one worker.
func TestInPlaceCompressEqualsRaw(t *testing.T) {
	rmat := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5)
	directed := gen.RMATDirected(9, 8, 0.57, 0.19, 0.19, 6)
	inputs := map[string]*graph.Graph{
		"undirected":          rmat,
		"undirected-weighted": gen.WithUniformWeights(rmat, 1, 9, 7),
		"directed":            directed,
		"directed-weighted":   gen.WithUniformWeights(directed, 1, 9, 8),
	}
	specs := []string{"uniform:p=0", "uniform:p=0.3", "uniform:p=1",
		"spectral:p=1", "spectral:p=0.5,variant=avgdeg", "spectral:p=1,reweight=true",
		"spectral:p=0.5,variant=avgdeg,reweight=true", "uniform:p=0.5|tr-eo:p=0.8"}
	succinct.UnpackHook = func(*succinct.PackedGraph) { t.Error("an edge-kernel compress unpacked its input") }
	defer func() { succinct.UnpackHook = nil }()
	for name, g := range inputs {
		pg := succinct.Pack(g, 0)
		path := filepath.Join(t.TempDir(), name+".sgp")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := succinct.WriteServable(f, pg); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := succinct.OpenPacked(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		for _, spec := range specs {
			pipeline := spec == "uniform:p=0.5|tr-eo:p=0.8"
			for _, workers := range []int{1, 2, 7} {
				if pipeline && (g.Directed() || workers > 1) {
					continue
				}
				want := applySpec(t, g, spec, 3, workers).Output
				for form, in := range map[string]graph.AdjacencyEdges{"packed": pg, "mapped": m} {
					res := applySpec(t, in, spec, 3, workers)
					if !res.Output.Equal(want) {
						t.Errorf("%s %s at %d workers on the %s form: m=%d, raw gives m=%d; want Equal outputs",
							name, spec, workers, form, res.Output.M(), want.M())
					}
					if err := res.Output.Validate(); err != nil {
						t.Errorf("%s %s on the %s form: %v", name, spec, form, err)
					}
				}
			}
		}
	}
}
