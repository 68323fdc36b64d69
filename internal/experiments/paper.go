package experiments

import (
	"fmt"
	"math"
	"slices"

	"slimgraph/internal/centrality"
	"slimgraph/internal/components"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/props"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// points labels a one-parameter sweep: one Spec per x, its Param text from
// paramFmt and its registry spec from spec.
func points(label, paramFmt string, spec func(x float64) string, xs ...float64) []Spec {
	out := make([]Spec, len(xs))
	for i, x := range xs {
		out[i] = Spec{Label: label, Param: fmt.Sprintf(paramFmt, x), Spec: spec(x)}
	}
	return out
}

// keep builds "name:key=x". remove builds "name:p=1-x": the evaluation's p
// for uniform sampling and for spectral sparsification is a removal strength
// (Fig. 5 axis: "p log(n) edges are removed from each vertex"), the
// registry's a keep rate.
func keep(name, key string) func(float64) string {
	return func(x float64) string { return fmt.Sprintf("%s:%s=%g", name, key, x) }
}

func remove(name string) func(float64) string {
	return func(p float64) string { return fmt.Sprintf("%s:p=%g", name, 1-p) }
}

// Artifacts lists every table and figure of the evaluation in presentation
// order; cmd/slimbench prints them and -only selects by Key.
var Artifacts = []Artifact{
	{Key: "table2", ID: "Table 2", Title: "#remaining edges: formula vs measured, with compression time",
		Note: "uniform: (1-p)m exact in expectation; spectral: sum of min(1, Υ/min-deg); " +
			"TR: m - pT is an upper bound on removals (shared triangle edges collide); " +
			"spanner: O(n^{1+1/k}); summary: m ± 2εm",
		Graphs: table2Graph,
		Specs: []Spec{
			{Label: "uniform", Param: "p=0.5", Spec: remove("uniform")(0.5)},
			{Label: "spectral", Param: "p=1,logn", Spec: "spectral:p=1,variant=logn"},
			{Label: "p-1-TR", Param: "p=0.5", Spec: "tr:p=0.5"},
			{Label: "spanner", Param: "k=8", Spec: "spanner:k=8"},
			{Label: "eps-summary", Param: "eps=0.1", Spec: "summarize:eps=0.1,iters=5"},
		},
		Cols: []Column{label("scheme"), param("params"),
			col("formula m'", func(r Row) string { _, text := table2Formula(r); return text }),
			col("measured m'", func(r Row) string {
				if r.StorageEdges != nil {
					return fmt.Sprintf("%d (decoded), %d stored", r.CM, *r.StorageEdges)
				}
				return d2(r.CM)
			}),
			elapsed("time")}},

	{Key: "table3", ID: "Table 3",
		Title: "property impact per scheme (measured; compare signs/limits with the paper's bounds)",
		Note: "EO TR & spanner preserve #CC; uniform p-sampling can disconnect; " +
			"deg-1 removal keeps T; spanner bounds distances by O(k); ε-summary can do anything",
		Graphs: table3Graph,
		Specs: []Spec{
			{Label: "original"},
			{Label: "eps-summary(0.1)", Spec: "summarize:eps=0.1,iters=6"},
			{Label: "uniform(p=0.5)", Spec: "uniform:p=0.5"}, // remove half
			{Label: "spectral(logn)", Spec: "spectral:p=1,variant=logn"},
			{Label: "spanner(k=8)", Spec: "spanner:k=8"},
			{Label: "EO-0.5-1-TR", Spec: "tr-eo:p=0.5"},
			{Label: "remove-deg<=1", Spec: "lowdeg"},
		},
		Cols: table3Columns},

	{Key: "fig5", ID: "Figure 5",
		Title: "relative runtime difference vs compression parameter (color = compression ratio)",
		Note: "spanners give the largest reductions (after a k threshold), p-1-TR the smallest; " +
			"uniform/spectral sweep the middle; fewer edges => faster algorithms",
		Graphs: fig5Graphs,
		Specs: slices.Concat(
			points("uniform", "p=%g", remove("uniform"), 0.1, 0.5, 0.9),
			points("spectral", "p=%g", remove("spectral"), 0.005, 0.05, 0.5),
			points("p-1-TR", "p=%g", keep("tr", "p"), 0.1, 0.5, 0.9),
			points("spanner", "k=%g", keep("spanner", "k"), 2, 8, 32, 128)),
		Cols: []Column{colGraph, label("scheme"), param("param"), colRatio,
			relTime("relBFS", func(g *graph.Graph, w int) { traverse.BFS(g, 0, w) }),
			relTime("relCC", func(g *graph.Graph, w int) { components.LabelsPropagation(g, w) }),
			relTime("relPR", func(g *graph.Graph, w int) {
				centrality.PageRank(g, centrality.PageRankOptions{MaxIter: 20, Tolerance: 1e-300, Workers: w})
			}),
			relTime("relTC", func(g *graph.Graph, w int) { triangles.Count(g, w) })}},

	{Key: "fig6a", ID: "Figure 6 (left)", Title: "edge reduction: spectral-avgdeg vs spectral-logn, p=0.5",
		Note:   "reductions differ per graph: the avg-degree variant adapts to density, log n to size",
		Graphs: fig6Graphs,
		Specs: []Spec{{Label: "avgdeg", Spec: "spectral:p=0.5,variant=avgdeg"},
			{Label: "logn", Spec: "spectral:p=0.5,variant=logn"}},
		Cols: []Column{colGraph, colAnalog, colN, colM}, PerSpec: []Column{reduction("red(%s)")}},

	// The paper's text says CT/EO deliver smaller m than plain TR, but its
	// Listing 1 EO pseudocode is inconsistent and §6.1/Table 5 require the
	// protective Edge-Once semantics (at most one deletion per triangle,
	// survivors shielded), under which EO/CT remove at most as many edges —
	// see the schemes.TREO doc comment; abl-eo runs both readings.
	{Key: "fig6b", ID: "Figure 6 (right)", Title: "edge reduction: 0.5-1-TR vs CT-0.5-1-TR vs EO-0.5-1-TR",
		Note:   "variants differ consistently across graphs (see abl-eo on EO semantics)",
		Graphs: pick(table6Graphs, 2, 3, 5, 9, 10), // the five most triangle-relevant analogs
		Specs: []Spec{{Label: "basic", Spec: "tr:p=0.5"}, {Label: "CT", Spec: "tr-ct:p=0.5"},
			{Label: "EO", Spec: "tr-eo:p=0.5"}},
		Cols: []Column{colGraph, colAnalog, colM}, PerSpec: []Column{reduction("red(%s)")}},

	{Key: "table5", ID: "Table 5", Title: "KL divergence of PageRank distributions (original vs compressed)",
		Note: "higher compression => higher KL; EO-TR and spanner k=2 smallest; uniform p=0.5 large; " +
			"road network (v-usa) near zero under spanners",
		Graphs: table5Graphs,
		Specs: []Spec{
			{Label: "EO0.8-1-TR", Spec: "tr-eo:p=0.8"}, {Label: "EO1.0-1-TR", Spec: "tr-eo:p=1"},
			{Label: "Unif(p=0.2)", Spec: "uniform:p=0.8"}, {Label: "Unif(p=0.5)", Spec: "uniform:p=0.5"},
			{Label: "Spank=2", Spec: "spanner:k=2"}, {Label: "Spank=16", Spec: "spanner:k=16"},
			{Label: "Spank=128", Spec: "spanner:k=128"}},
		Cols: []Column{colGraph}, PerSpec: []Column{{Head: "%s", Cell: colKL.Cell}}},

	{Key: "table6", ID: "Table 6", Title: "average number of triangles per vertex (3T/n) per scheme",
		Note: "uniform(p) scales T by (1-p)^3; spanners at k>=16 eliminate nearly all triangles; " +
			"spectral p=0.5 goes to ~0 (log n edges per vertex remain)",
		Graphs: table6Graphs,
		Specs: []Spec{{Label: "orig"},
			{Label: "0.2-1-TR", Spec: "tr:p=0.2"}, {Label: "0.9-1-TR", Spec: "tr:p=0.9"},
			{Label: "U(p=0.8)", Spec: remove("uniform")(0.8)}, {Label: "U(p=0.5)", Spec: remove("uniform")(0.5)},
			{Label: "U(p=0.2)", Spec: remove("uniform")(0.2)},
			{Label: "Spk=2", Spec: "spanner:k=2"}, {Label: "Spk=16", Spec: "spanner:k=16"},
			{Label: "Spk=128", Spec: "spanner:k=128"},
			{Label: "Spec0.5", Spec: remove("spectral")(0.5)}, {Label: "Spec0.05", Spec: remove("spectral")(0.05)},
			{Label: "Spec0.005", Spec: remove("spectral")(0.005)}},
		Cols: []Column{colGraph}, PerSpec: []Column{num("%s", f3, trianglesPerVertex)}},

	{Key: "bfs", ID: "§7.2 (BFS)",
		Title:  "spanner critical-edge retention on the s-pok analog (avg over roots 0 and n/2)",
		Note:   "retention degrades far more slowly than raw edge removal as k grows",
		Graphs: pick(fig5Graphs, 1),
		Specs:  points("spanner", "%g", keep("spanner", "k"), 2, 8, 32, 128),
		Cols: []Column{colGraph, param("k"),
			num("edges removed", percent, Row.Reduction),
			quality("critical retained", func(q *metrics.Quality) string { return percent(q.BFSRetention) })}},

	// As the paper notes, the metric is only meaningful when schemes remove
	// about the same number of edges, so each scheme is tuned to a ~30%
	// removal budget and the achieved ratio is reported alongside.
	{Key: "pairs", ID: "§7.2 (pairs)", Title: "reordered neighboring-vertex pairs at a ~30% edge-removal budget",
		Note:   "spectral sparsification preserves per-vertex triangle-count ordering best",
		Graphs: pick(fig5Graphs, 0, 1),
		Specs: []Spec{{Label: "uniform", Spec: "uniform:p=0.7"},
			{Label: "spectral", Pick: tuneSpectral}, {Label: "p-1-TR*", Pick: tuneTR}},
		Cols: []Column{colGraph, label("scheme"), {Head: "achieved ratio", Cell: colRatio.Cell},
			num("reordered(BC)", f4, reorderedBC), num("reordered(TC/vertex)", f4, reorderedTC)}},

	{Key: "fig7", ID: "Figure 7", Title: "spanner impact on degree distributions (power-law fit)",
		Note:   "the higher k is, the closer the log-log plot is to a straight line",
		Graphs: fig7Graphs,
		Specs: []Spec{{Label: "none"}, {Label: "spanner k=2", Spec: "spanner:k=2"},
			{Label: "spanner k=32", Spec: "spanner:k=32"}},
		Cols: []Column{colGraph, label("compression"), keptEdges("m"),
			col("maxdeg", func(r Row) string { return d2(r.out.MaxDegree()) }), colSlope, colR2}},

	// Every random decision is keyed by the global edge ID (§3.2), so the
	// rank count (NamedGraph.Workers) moves only the wall-time column.
	{Key: "fig8", ID: "Figure 8", Title: "distributed uniform sampling of the largest graphs (simulated ranks)",
		Note:   "degree-distribution slope is roughly preserved under sampling; scattered outliers vanish",
		Graphs: fig8Graphs,
		Specs: []Spec{{Param: "none"}, {Param: "0.4", Spec: "uniform:p=0.6"},
			{Param: "0.7", Spec: "uniform:p=0.3"}},
		Cols: []Column{colGraph, col("ranks", func(r Row) string { return d2(r.workers) }),
			param("removal p"), keptEdges("m"), colSlope, colR2, elapsed("wall time")}},

	// tr-maxweight defaults to one worker, where MST preservation is exact.
	{Key: "weighted", ID: "§7.1 (weighted)",
		Title:  "max-weight TR on weighted graphs: compression, MST weight, SSSP time",
		Note:   "road networks barely compress under TR (few triangles); MST weight exact",
		Graphs: weightedGraphs,
		Specs:  []Spec{{Label: "max-weight TR", Spec: "tr-maxweight:p=1"}},
		Cols: []Column{colGraph, colM, keptEdges("m'"), reduction("reduction"),
			quality("MST before", func(q *metrics.Quality) string { return f1(*q.MSTWeight) }),
			quality("MST after", func(q *metrics.Quality) string { return f1(*q.CompressedMSTWeight) }),
			relTime("SSSP rel. diff", func(g *graph.Graph, w int) { traverse.DeltaStepping(g, 0, 0, w) })}},

	{Key: "timing", ID: "§7.4 (timing)", Title: "compression routine wall times on one graph",
		Note: "expected order: uniform <= spectral < spanner < TR (CT slowest TR) << summarization; " +
			"TR's O(m^{3/2}) cost needs a triangle-rich graph to dominate the spanner's O(m) constants",
		Graphs: timingGraph, Repeats: 3,
		Specs: []Spec{
			{Label: "uniform", Param: "p=0.5", Spec: "uniform:p=0.5"},
			{Label: "spectral", Param: "p=1,logn", Spec: "spectral:p=1,variant=logn"},
			{Label: "spanner", Param: "k=8", Spec: "spanner:k=8"},
			{Label: "p-1-TR", Param: "p=0.5", Spec: "tr:p=0.5"},
			{Label: "CT-TR", Param: "p=0.5", Spec: "tr-ct:p=0.5"},
			{Label: "summarize", Param: "I=10,eps=0.1", Spec: "summarize:eps=0.1,iters=10"},
		},
		Cols: []Column{label("scheme"), param("params"), elapsed("time"),
			{Head: "vs uniform", Timing: true, Cell: func(r Row) string {
				return f1(r.Elapsed.Seconds() / r.first.Elapsed.Seconds())
			}}}},

	{Key: "lowrank", ID: "§7.4 (low-rank)", Title: "clustered SVD baseline: error rates and storage",
		Note:   "error rates are very high at any practical rank; storage grows with rank x cluster size",
		Static: lowRank},

	// §6.3 claims spectral sparsification "preserves the value of minimum
	// cuts and maximum flows"; the §4.6 future-work cut sparsifier
	// (Benczúr–Karger, an edge kernel here) is run beside it, and uniform
	// sampling at the sparsifier's edge budget. rho sits below the clique
	// strengths so interiors sample at every scale (the default 8·ln n keeps
	// everything on small verification graphs; a size-s clique has NI
	// indices up to about s/2).
	{Key: "cuts", ID: "§6.3 (cuts)", Title: "global min cut under edge schemes (bottleneck graphs, weighted cuts)",
		Note: "the strength-sampled cut sparsifier keeps the min cut (bridge edges get " +
			"stay-probability 1); the degree-proxy spectral kernel does NOT protect bridges " +
			"between dense regions (effective-resistance sampling would — the reason cut " +
			"sparsifiers sample by strength); uniform sampling destroys cuts proportionally",
		Graphs: cutGraphs,
		Specs: []Spec{{Label: "cut-sparsify", Spec: "cut:rho=3"},
			{Label: "spectral", Spec: "spectral:p=1,reweight=true"},
			{Label: "uniform", Pick: func(_ Config, _ *graph.Graph, prior []Row) string {
				return keep("uniform", "p")(prior[0].Ratio)
			}}},
		Cols: []Column{colGraph,
			num("min cut", f1, func(r Row) float64 { return props.StoerWagner(r.orig) }),
			label("scheme"), colRatio,
			num("cut after", f1, func(r Row) float64 { return props.StoerWagner(r.out) }),
			num("cut error", f3, cutError)}},

	// The paper's Listing 1 is inconsistent about Edge-Once (see the
	// schemes.TREO doc comment): protective EO (at most one deletion per
	// triangle, survivors shielded, the default) against redirect EO (every
	// sampled triangle deletes a fresh edge if one exists). Fig. 6's "EO
	// removes more than basic" holds only under redirect; Table 5's small KL
	// at EO p=1.0 and the §6.1 bounds only under the protective reading.
	{Key: "abl-eo", ID: "Ablation (EO)",
		Title: "Edge-Once semantics: edge reduction and CC preservation per reading, p=0.5",
		Note: "protective EO removes <= basic and keeps components; redirect EO removes >= basic " +
			"(the Fig. 6 shape) at the cost of connectivity",
		Graphs: pick(table6Graphs, 2, 3, 5, 9),
		Specs: []Spec{{Label: "basic", Spec: "tr:p=0.5"}, {Label: "EO-prot", Spec: "tr-eo:p=0.5"},
			{Label: "EO-redir", Spec: "tr-eo-redirect:p=0.5"}},
		Cols: []Column{colGraph}, PerSpec: []Column{reduction("red(%s)"), deltaCC("ΔCC(%s)")}},

	// §4.5.3's two inter-cluster rules: per-vertex (the prose and Miller et
	// al., the default, matching the paper's measured edge counts) against
	// the per-cluster-pair reading of the Listing 1 kernel.
	{Key: "abl-spanner", ID: "Ablation (spanner)",
		Title:  "inter-cluster rule: per-vertex (default) vs per-cluster-pair",
		Note:   "per-pair compresses harder but degrades BFS criticals and PageRank much faster",
		Graphs: pick(fig5Graphs, 1),
		Specs:  ablSpannerSpecs(2, 8, 32),
		Cols: []Column{colGraph, param("k"), label("mode"), colRatio,
			quality("critical ret.", func(q *metrics.Quality) string { return f3(q.BFSRetention) }), colKL}},

	{Key: "abl-upsilon", ID: "Ablation (Υ)", Title: "spectral sparsification keep parameter sweep (Υ = P·ln n)",
		Note:   "larger P keeps more edges; spectral error falls as the ratio rises",
		Graphs: pick(fig5Graphs, 1),
		Specs:  points("spectral", "%g", keep("spectral", "p"), 0.1, 0.25, 0.5, 1, 2, 4),
		Cols: []Column{param("P"), colRatio,
			col("isolated vertices", func(r Row) string { return d2(isolated(r)) }), colKL}},

	{Key: "guidelines", ID: "§7.5", Title: "how to select a compression scheme",
		Note:   "first consult accuracy (Table 3), then feasibility (Table 2), then parameters (Fig. 5)",
		Static: guidelines},
}

// Compare lines arbitrary registry specs — single schemes or pipelines — up
// side by side on the Figure 5 graph trio: anything schemes.Parse accepts
// against anything else, without an artifact of its own.
func Compare(specs []string) Artifact {
	a := Artifact{Key: "compare", ID: "Compare", Title: "registry spec comparison (schemes and pipelines)",
		Note:   "one row per graph x spec; KL, dCC and T'/T need an unchanged vertex set",
		Graphs: fig5Graphs,
		Cols: []Column{colGraph, col("spec", func(r Row) string { return r.Spec }), colRatio,
			num("bits/edge", f1, func(r Row) float64 { return r.BitsPerEdge }), colKL, deltaCC("dCC"),
			quality("T'/T", func(q *metrics.Quality) string {
				if q.Triangles == 0 {
					return "-"
				}
				return f3(float64(q.CompressedTriangles) / float64(q.Triangles))
			}), elapsed("time")}}
	for _, s := range specs {
		a.Specs = append(a.Specs, Spec{Spec: s})
	}
	return a
}

func percent(x float64) string { return fmt.Sprintf("%.0f%%", 100*x) }

// trianglesPerVertex is Table 6's 3T/n of the output.
func trianglesPerVertex(r Row) float64 {
	return 3 * float64(r.Quality.CompressedTriangles) / float64(r.CN)
}

func ablSpannerSpecs(ks ...int) (specs []Spec) {
	for _, k := range ks {
		for _, mode := range []string{"pervertex", "perpair"} {
			specs = append(specs, Spec{Label: mode, Param: d2(k), Spec: fmt.Sprintf("spanner:k=%d,mode=%s", k, mode)})
		}
	}
	return specs
}

// table2Formula is the paper's prediction of the row's remaining edges: the
// number, and the text Table 2 prints around it.
func table2Formula(r Row) (float64, string) {
	m, n := float64(r.M), float64(r.N)
	switch r.Label {
	case "uniform":
		return 0.5 * m, f1(0.5 * m)
	case "spectral":
		// Sum over edges of min(1, Υ/min-degree) with Υ = p·ln n, p = 1.
		expected := 0.0
		for e := 0; e < r.orig.M(); e++ {
			u, v := r.orig.EdgeEndpoints(graph.EdgeID(e))
			expected += math.Min(1, math.Log(n)/float64(min(r.orig.Degree(u), r.orig.Degree(v))))
		}
		return expected, f1(expected)
	case "p-1-TR":
		bound := math.Max(0, m-0.5*float64(r.Quality.Triangles))
		return bound, fmt.Sprintf(">= %s (max(0, m - pT))", f1(bound))
	case "spanner":
		order := math.Pow(n, 1+1.0/8)
		return order, fmt.Sprintf("O(n^{1+1/k}) ~ %s", f1(order))
	}
	const eps = 0.1
	return m, fmt.Sprintf("m ± 2εm = [%s, %s]", f1(m*(1-2*eps)), f1(m*(1+2*eps)))
}

// table3Columns are Table 3's twelve properties, each measured on the
// row's output graph (T and CC are the evaluator's).
var table3Columns = []Column{label("scheme"),
	col("n", func(r Row) string { return d2(r.CN) }), keptEdges("m"),
	col("s-t", func(r Row) string { // shortest path from vertex 0 to vertex n-1
		dist, _ := traverse.Dijkstra(r.out, 0)
		if d := dist[r.CN-1]; !math.IsInf(d, 1) {
			return f1(d)
		}
		return "inf"
	}),
	num("avgP", f1, func(r Row) float64 {
		roots := []graph.NodeID{0, graph.NodeID(r.CN / 3), graph.NodeID(2 * r.CN / 3)}
		return traverse.AveragePathLength(r.out, roots, r.workers)
	}),
	col("D", func(r Row) string { return d2(int(traverse.DoubleSweepDiameter(r.out, 0, r.workers))) }),
	num("avgdeg", f1, func(r Row) float64 { return r.out.AvgDegree() }),
	num("maxdeg", f1, func(r Row) float64 { return float64(r.out.MaxDegree()) }),
	quality("T", func(q *metrics.Quality) string { return d2(int(q.CompressedTriangles)) }),
	quality("CC", func(q *metrics.Quality) string { return d2(q.CompressedComponents) }),
	col("CG", func(r Row) string { return d2(props.ColoringNumber(r.out)) }),
	col("IS", func(r Row) string { return d2(props.IndependentSetSize(r.out)) }),
	col("MC", func(r Row) string { return d2(props.MatchingSize(r.out)) }),
}
