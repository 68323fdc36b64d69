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

// goldenSpecs covers every registered name. scheduleFree marks the specs
// whose output may not depend on the worker count (no state shared between
// kernel instances); small sends a spec to the small graphs only — the
// schemes that do not run on a core kernel loop (summarize takes 2 s on
// rmat14) are pinned at a scale that keeps the test's runtime.
var goldenSpecs = []struct {
	spec         string
	scheduleFree bool
	small        bool
}{
	{"uniform:p=0.5", true, false},
	{"spectral:p=0.5", true, false},
	{"spectral:p=0.5,reweight=true", true, false},
	{"vertexsample:p=0.7", true, false},
	{"lowdeg", true, false},
	{"cut", true, false},
	{"spanner:k=8", true, false},
	{"spanner:k=8,mode=perpair", true, false},
	{"tr:p=0.5", true, false},
	{"tr:p=0.5,x=2", true, false},
	{"tr-eo:p=0.8", false, false},
	{"tr-ct:p=0.7", false, false},
	{"tr-maxweight:p=0.9", false, false},
	{"tr:p=0.5,variant=EO-redirect", false, false},
	{"tr-collapse:p=0.5", true, false},
	{"summarize", true, true},
	{"relabel:order=bfs", true, true},
	{"lowdeg-iter", true, true},
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
// undirected, weighted and unweighted inputs — at 1, 2 and 7 workers where
// the output may not depend on the worker count (Scheme.Apply), at one
// otherwise. The TR family and summarize have no directed form. Only the
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
	type inPlaceSpec struct {
		spec         string
		scheduleFree bool
	}
	specs := []inPlaceSpec{{"uniform:p=0", true}, {"uniform:p=0.3", true}, {"uniform:p=1", true},
		{"spectral:p=1", true}, {"spectral:p=0.5,variant=avgdeg", true}, {"spectral:p=1,reweight=true", true},
		{"spectral:p=0.5,variant=avgdeg,reweight=true", true}, {"uniform:p=0.5|tr-eo:p=0.8", false}}
	for _, sp := range goldenSpecs {
		specs = append(specs, inPlaceSpec{sp.spec, sp.scheduleFree})
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
		for _, sp := range specs {
			if g.Directed() && needsUndirected(sp.spec) {
				continue
			}
			stage, _, _ := strings.Cut(sp.spec, ":")
			current, mayUnpack = sp.spec, stage == "summarize" || stage == "relabel" || stage == "tr-collapse"
			workerCounts := []int{1, 2, 7}
			if !sp.scheduleFree {
				workerCounts = workerCounts[:1]
			}
			for _, workers := range workerCounts {
				want := applySpec(t, g, sp.spec, 3, workers).Output
				for form, in := range map[string]graph.AdjacencyEdges{"packed": pg, "mapped": m} {
					res := applySpec(t, in, sp.spec, 3, workers)
					if !res.Output.Equal(want) {
						t.Errorf("%s %s at %d workers on the %s form: m=%d, raw gives m=%d; want Equal outputs",
							name, sp.spec, workers, form, res.Output.M(), want.M())
					}
					if err := res.Output.Validate(); err != nil {
						t.Errorf("%s %s on the %s form: %v", name, sp.spec, form, err)
					}
				}
			}
		}
	}
}
