package schemes

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// goldenSpecs covers every registered name. small sends a spec to the small
// graphs only — the schemes that do not run on a core kernel loop
// (summarize takes 2 s on rmat14) are pinned at a scale that keeps the
// test's runtime.
var goldenSpecs = []struct {
	spec  string
	small bool
}{
	{"uniform:p=0.5", false},
	{"spectral:p=0.5", false},
	{"spectral:p=0.5,reweight=true", false},
	{"vertexsample:p=0.7", false},
	{"lowdeg", false},
	{"cut", false},
	{"spanner:k=8", false},
	{"spanner:k=8,mode=perpair", false},
	{"tr:p=0.5", false},
	{"tr:p=0.5,x=2", false},
	{"tr-eo:p=0.8", false},
	{"tr-ct:p=0.7", false},
	{"tr-maxweight:p=0.9", false},
	{"tr:p=0.5,variant=EO-redirect", false},
	{"tr-collapse:p=0.5", false},
	{"summarize", true},
	{"relabel:order=bfs", true},
	{"lowdeg-iter", true},
}

// needsUndirected reports whether a spec has a stage that refuses a directed
// input: the TR family and summarize (symmetrize first).
func needsUndirected(spec string) bool {
	for _, stage := range strings.Split(spec, "|") {
		name, _, _ := strings.Cut(stage, ":")
		if strings.HasPrefix(name, "tr") || name == "summarize" {
			return true
		}
	}
	return false
}

// TestInPlaceCompressEqualsRaw pins the one input path: Apply on a
// PackedGraph and on an OpenPacked mapping of its servable image returns a
// graph Equal to Apply on the raw CSR, for every registration (goldenSpecs),
// the edge kernels across their parameters and a pipeline, on directed and
// undirected, weighted and unweighted inputs — at 1, 2 and 7 workers. The TR family and summarize have no directed form. Only the
// three schemes that build a graph on a new vertex set — summarize, relabel
// and tr-collapse's contraction — may unpack the input; the Unpack tripwire
// fails every other.
func TestInPlaceCompressEqualsRaw(t *testing.T) {
	rmat := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5)
	directed := gen.RMATDirected(9, 8, 0.57, 0.19, 0.19, 6)
	inputs := map[string]*graph.Graph{
		"undirected":          rmat,
		"undirected-weighted": gen.WithUniformWeights(rmat, 1, 9, 7),
		"directed":            directed,
		"directed-weighted":   gen.WithUniformWeights(directed, 1, 9, 8),
	}
	specs := []string{"uniform:p=0", "uniform:p=0.3", "uniform:p=1", "spectral:p=1",
		"spectral:p=0.5,variant=avgdeg", "spectral:p=1,reweight=true",
		"spectral:p=0.5,variant=avgdeg,reweight=true", "uniform:p=0.5|tr-eo:p=0.8"}
	for _, sp := range goldenSpecs {
		specs = append(specs, sp.spec)
	}
	var current string
	mayUnpack := false
	succinct.UnpackHook = func(*succinct.PackedGraph) {
		if !mayUnpack {
			t.Errorf("%s unpacked its input", current)
		}
	}
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
			if g.Directed() && needsUndirected(spec) {
				continue
			}
			stage, _, _ := strings.Cut(spec, ":")
			current, mayUnpack = spec, stage == "summarize" || stage == "relabel" || stage == "tr-collapse"
			for _, workers := range []int{1, 2, 7} {
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
