package succinct

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"slimgraph/internal/centrality"
	"slimgraph/internal/components"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/props"
	"slimgraph/internal/rng"
	"slimgraph/internal/traverse"
	"slimgraph/internal/triangles"
)

// kernelResults is everything the stage-2 kernels compute on one graph. Each
// kernel has one implementation over graph.Adjacency, so the whole struct —
// every int and every float, compared with == — must be the same on every
// representation of the graph and at every worker count.
type kernelResults struct {
	Dist       []int32
	Rank       []float64
	Labels     []graph.NodeID
	Components int
	Degrees    []float64
	Forest     *props.Result
	Critical   int
	BFSCrit    *metrics.BFSCriticalResult
	Retention  float64
	Quality    *metrics.Quality
	// The triangle kernels are defined on undirected graphs only.
	Triangles   int64
	PerVertex   []int64
	ApproxCount float64
}

// runKernels runs every kernel on a, with comp as the compressed side of the
// two-graph metrics. The BFS parent tree is returned apart: among same-level
// candidates the choice is only deterministic at one worker.
func runKernels(a, comp graph.AdjacencyEdges, workers int) (kernelResults, []graph.NodeID) {
	res := kernelResults{
		Rank:       centrality.PageRank(a, centrality.PageRankOptions{Workers: workers}),
		Labels:     components.Labels(a),
		Components: components.Count(a),
		Degrees:    metrics.DegreeDistribution(a),
		Forest:     props.Kruskal(a),
	}
	var err error
	if res.Quality, err = metrics.CompareGraphs(a, comp, workers); err != nil {
		panic(err)
	}
	var parent []graph.NodeID
	if a.N() > 0 {
		root := graph.NodeID(a.N() / 3)
		bfs := traverse.BFS(a, root, workers)
		res.Dist, parent = bfs.Dist, bfs.Parent
		res.Critical = metrics.CriticalEdgeCount(a, bfs.Dist)
		res.BFSCrit = metrics.BFSCritical(a, comp, root, workers)
		res.Retention = metrics.BFSCriticalMulti(a, comp, []graph.NodeID{0, root}, workers)
	}
	if !a.Directed() {
		res.Triangles = triangles.Count(a, workers)
		res.PerVertex = triangles.NewEngine(a, workers).PerVertex()
		res.ApproxCount = triangles.CountApprox(a, 0.5, 9, workers)
	}
	return res, parent
}

// TestKernelsAgreeAcrossRepresentations is the one table behind "one body
// per kernel": every kernel × {raw CSR, Pack, OpenPacked mapping} × nine
// kinds of graph × workers {1, 2, 7} against the raw CSR at one worker. The
// path, the star, the two components and the single vertex are there for the
// BFS direction switch: frontiers that never grow heavy, one that is a single
// hub, a part no level reaches.
func TestKernelsAgreeAcrossRepresentations(t *testing.T) {
	r := rng.New(43)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat", gen.RMAT(9, 8, 0.57, 0.19, 0.19, 5)},
		{"grid", gen.Grid2D(20, 17, true)},
		{"directed", randomGraph(r, packCase{directed: true}, 150, 1200)},
		{"weighted", randomGraph(r, packCase{weighted: true}, 150, 1200)},
		{"directed-weighted", randomGraph(r, packCase{directed: true, weighted: true}, 150, 1200)},
		{"path", gen.Path(300)},
		{"star", gen.Star(200)},
		{"two-components", graph.FromEdges(9, false, []graph.Edge{
			graph.E(0, 1), graph.E(1, 2), graph.E(2, 0), graph.E(2, 3), graph.E(5, 6), graph.E(6, 7)})},
		{"single-vertex", graph.FromEdges(1, false, nil)},
		{"empty", graph.FromEdges(0, false, nil)},
	}
	dir := t.TempDir()
	// reps returns g's three representations, the raw CSR first.
	reps := func(name string, g *graph.Graph) []graph.AdjacencyEdges {
		pg := Pack(g, 0)
		path := filepath.Join(dir, name+".slim")
		writeServableFile(t, path, pg)
		m, err := OpenPacked(path)
		if err != nil {
			t.Fatalf("%s: OpenPacked: %v", name, err)
		}
		t.Cleanup(func() { m.Close() })
		return []graph.AdjacencyEdges{g, pg, m.PackedGraph}
	}
	repNames := []string{"raw", "packed", "mapped"}
	for _, tc := range graphs {
		// The compressed side: every third canonical edge dropped.
		keep := graph.NewEdgeSet(tc.g.M())
		keep.AddBatch(0, func(e graph.EdgeID) bool { return e%3 != 0 })
		comp := tc.g.FilterEdgeSet(keep, nil)
		origs, comps := reps(tc.name, tc.g), reps(tc.name+"-comp", comp)
		want, wantParent := runKernels(tc.g, comp, 1)
		for i, a := range origs {
			for _, workers := range []int{1, 2, 7} {
				got, gotParent := runKernels(a, comps[i], workers)
				at := fmt.Sprintf("%s on %s at %d workers", tc.name, repNames[i], workers)
				gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
				for f := 0; f < gv.NumField(); f++ {
					if !reflect.DeepEqual(gv.Field(f).Interface(), wv.Field(f).Interface()) {
						t.Errorf("%s: %s = %v, raw CSR at one worker has %v",
							at, gv.Type().Field(f).Name, gv.Field(f).Interface(), wv.Field(f).Interface())
					}
				}
				if workers == 1 && !reflect.DeepEqual(gotParent, wantParent) {
					t.Errorf("%s: BFS parents differ from the raw CSR's", at)
				}
			}
		}
	}
}
