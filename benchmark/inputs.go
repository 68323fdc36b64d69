package main

import (
	"math"

	"slimgraph/internal/centrality"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

// config is what one run is parameterised by. scale exists so the tests can
// run the same code on graphs 64 times smaller than the pinned ones.
type config struct {
	seed    uint64
	seconds float64
	scale   int    // rmat scale; the grid is 2^(scale/2) on a side
	procs   int    // GOMAXPROCS, also the client count and the batch worker count
	outDir  string // results, traces and temp data live here
	setups  int    // how many times set-up is repeated for setup_s
	// breakGate corrupts one expected answer after set-up: the run must then
	// report failures and exit non-zero.
	breakGate bool
}

// The pinned graphs and the seed of the accuracy reference do not follow
// -seed. The seed moves what the system is asked (roots, operation order,
// popularity draws, the seeds of timed compressions); it does not move what
// the system holds, so bits per edge, residency and the accuracy figures
// repeat exactly from run to run and keep the tight bounds that make them a
// gate. An RMAT instance per seed would put several per cent of instance
// variation on each of them.
const (
	pinnedGraphSeed = 77
	accuracySeed    = 1
)

// rmatSeed is the generator seed of the i-th rmat graph: i = 0 is the pinned
// rmat14, 1..5 its serve-churn siblings, 6.. the upload twins.
func (c config) rmatSeed(i int) uint64 { return pinnedGraphSeed + uint64(i) }

// rmat returns the i-th RMAT(scale, 16) graph: skewed degrees, low diameter,
// triangle-rich.
func (c config) rmat(i int) *graph.Graph {
	return gen.RMAT(c.scale, 16, 0.57, 0.19, 0.19, c.rmatSeed(i))
}

// grid returns the pinned grid with diagonals: uniform degree, hundreds of
// BFS levels, few triangles.
func (c config) grid() *graph.Graph {
	side := 1 << (c.scale / 2)
	return gen.Grid2D(side, side, true)
}

// roots returns k seeded BFS roots of g, drawn among the vertices that have
// a neighbour: an RMAT graph leaves a large share of its vertices isolated,
// and a BFS from one of those answers in microseconds, which would split
// the bfs class into two unrelated distributions.
func (c config) roots(k int, g *graph.Graph) []int32 {
	r := rng.New(rng.Hash64(c.seed, 0x726f6f7473))
	out := make([]int32, 0, k)
	for len(out) < k {
		if v := int32(r.Intn(g.N())); g.Degree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// accuracy is the paper's three result-quality measures of one compressed
// graph against its original.
type accuracy struct {
	klPageRank     float64
	triangleRelErr float64
	bfsRetention   float64
	edgeReduction  float64
}

// original caches the per-original quantities accuracyOf needs.
type original struct {
	g         *graph.Graph
	pageRank  []float64
	triangles int64
}

func newOriginal(g *graph.Graph) *original {
	return &original{
		g:         g,
		pageRank:  centrality.PageRank(g, centrality.PageRankOptions{Workers: 1}),
		triangles: triangles.Count(g, 1),
	}
}

// accuracyOf measures comp against o at one worker, so the numbers repeat
// exactly: KL(PR_orig || PR_comp), |T_comp - T_orig| / T_orig, and the BFS
// critical-edge retention over roots 0 and n/2.
func accuracyOf(o *original, comp *graph.Graph) accuracy {
	a := accuracy{
		klPageRank: metrics.KLDivergence(o.pageRank, centrality.PageRank(comp, centrality.PageRankOptions{Workers: 1})),
		bfsRetention: metrics.BFSCriticalMulti(o.g, comp,
			[]graph.NodeID{0, graph.NodeID(o.g.N() / 2)}, 1),
	}
	if o.triangles > 0 {
		a.triangleRelErr = math.Abs(float64(triangles.Count(comp, 1)-o.triangles)) / float64(o.triangles)
	}
	if o.g.M() > 0 {
		a.edgeReduction = 1 - float64(comp.M())/float64(o.g.M())
	}
	return a
}

// mib converts bytes to MiB.
func mib(bytes float64) float64 { return bytes / (1 << 20) }

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
