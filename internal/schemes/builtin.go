package schemes

import (
	"math"
	"strings"

	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
	"slimgraph/internal/summarize"
)

// The built-in schemes: one Registration each — a kernel (in edge.go,
// vertex.go, triangle.go, spanner.go, cut.go, or below) and its parameter
// table. Adding a parameter to a scheme is one row here plus the
// a.Float/Int/Bool/Enum read in its kernel.

var inf = math.Inf(1)

// keepProbability is the p of the sampling schemes and the TR family.
var keepProbability = Param{Key: "p", Kind: Float, Default: "0.5", Min: 0, Max: 1}

func init() {
	Register(Registration{Name: "uniform", Apply: uniform,
		About:  "uniform edge sampling: keep each edge w.p. p",
		Params: []Param{keepProbability}})
	Register(Registration{Name: "vertexsample", Apply: vertexSample,
		About:  "vertex sampling: keep each vertex w.p. p",
		Params: []Param{keepProbability}})
	Register(Registration{Name: "spectral", Apply: spectral,
		About: "spectral sparsification; p scales Υ",
		Params: []Param{
			{Key: "p", Kind: Float, Default: "1", Min: math.SmallestNonzeroFloat64, Max: inf}, // p > 0
			{Key: "variant", Kind: Enum, Default: "logn", Values: []string{"logn", "avgdeg"}},
			{Key: "reweight", Kind: Bool, Default: "false"},
		}})

	// The TR family: every variant is a name of its own, and tr:variant=v is
	// sugar for that name. x is in every table so that x=1 is accepted
	// everywhere, but only the basic variant's range reaches 2.
	trParams := func(maxX float64) []Param {
		return []Param{keepProbability, {Key: "x", Kind: Int, Default: "1", Min: 1, Max: maxX, Quiet: true}}
	}
	Register(Registration{Name: "tr", Apply: triangleReduction(TRBasic),
		About: "Triangle p-x-Reduction; variant=v is sugar for tr-v",
		Params: append(trParams(2), Param{Key: "variant", Kind: Enum, Default: "basic",
			Values: []string{"basic", "EO", "CT", "maxweight", "collapse", "EO-redirect", "redirect"},
			Sugar: map[string]string{"basic": "tr", "EO": "tr-eo", "CT": "tr-ct", "maxweight": "tr-maxweight",
				"collapse": "tr-collapse", "EO-redirect": "tr-eo-redirect", "redirect": "tr-eo-redirect"}})})
	for _, v := range []TRVariant{TREO, TRCT, TRMaxWeight, TRCollapse, TREORedirect} {
		Register(Registration{Name: "tr-" + strings.ToLower(v.String()), Apply: triangleReduction(v),
			About:  "Triangle p-1-Reduction, " + v.String() + " variant",
			Params: trParams(1)})
	}

	Register(Registration{Name: "lowdeg", Apply: lowDegree,
		About: "remove degree <= 1 vertices"})
	Register(Registration{Name: "lowdeg-iter", Apply: lowDegreeIterative,
		About: "peel degree <= 1 vertices to a fixpoint (keeps the 2-core)"})
	Register(Registration{Name: "spanner", Apply: spanner,
		About: "O(k)-spanner via low-diameter decomposition",
		Params: []Param{
			{Key: "k", Kind: Int, Default: "8", Min: 1, Max: inf},
			{Key: "mode", Kind: Enum, Default: "pervertex", Values: []string{"pervertex", "perpair"}},
		}})
	Register(Registration{Name: "cut", Apply: cutSparsify,
		About:  "Benczur-Karger cut sparsifier; rho=auto is 8 ln n",
		Params: []Param{{Key: "rho", Kind: Float, Default: "auto", Min: -inf, Max: inf, Auto: true}}})
	Register(Registration{Name: "summarize", Apply: summarizeDecoded,
		About: "SWeG-style lossy eps-summary, decoded",
		Params: []Param{
			{Key: "eps", Kind: Float, Default: "0.1", Min: 0, Max: inf},
			{Key: "iters", Kind: Int, Default: "10", Min: 1, Max: inf},
		}})
	Register(Registration{Name: "relabel", Apply: relabel,
		About:  "lossless gap-minimizing vertex relabel",
		Params: []Param{{Key: "order", Kind: Enum, Default: "degree", Values: []string{"degree", "bfs", "window"}}}})
}

// summarizeDecoded is SWeG-style ε-summarization (§4.5.4) as a Scheme. Its
// Result carries the decoded graph; the Summary itself (superedges,
// corrections, storage accounting) rides in Result.Aux.
func summarizeDecoded(g graph.AdjacencyEdges, a Args) (*Result, error) {
	sum := summarize.Summarize(graph.CSROf(g, a.Workers), summarize.Options{
		Epsilon: a.Float("eps"), Iterations: a.Int("iters"), Seed: a.Seed, Workers: a.Workers})
	return &Result{Output: sum.Decode(), Aux: sum}, nil
}

// relabel is locality relabeling: the same graph under a gap-minimizing
// vertex permutation (degree, bfs or window — a succinct.Order other than
// none, which would be a no-op). It removes nothing — EdgeReduction is 0 and
// every query answer is the original's after ID translation — but it shrinks
// the succinct encoding, so it composes as a storage stage, e.g.
// "uniform:p=0.5|relabel:order=bfs". The permutation rides in
// Result.VertexMap exactly like a vertex-renumbering scheme's
// (VertexMap[old] = new, never -1: no vertex is dropped). Every ordering is
// deterministic, so the seed is moot.
func relabel(in graph.AdjacencyEdges, a Args) (*Result, error) {
	order, err := succinct.ParseOrder(a.Enum("order"))
	if err != nil {
		return nil, err
	}
	g := graph.CSROf(in, a.Workers)
	perm := succinct.ComputeOrder(g, order, a.Workers)
	out, err := g.Permute(perm, a.Workers)
	if err != nil {
		return nil, err
	}
	return &Result{Output: out, VertexMap: perm}, nil
}
