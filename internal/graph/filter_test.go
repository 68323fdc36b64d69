package graph_test

import (
	"testing"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

// reweightFor is the reweight the filter tests apply: a weight no input
// edge carries, different per edge.
func reweightFor(e graph.EdgeID) float64 { return float64(e%5) + 0.5 }

// TestFilterColumnsMatchesReference: the one filter builds what
// ReferenceBuild builds from the kept edge list, over a raw graph's own
// columns (FilterEdgeSet, and FilterColumns at one worker) and over a packed
// graph's decoded ones (EdgeColumnsOf at two) — directed and undirected,
// unweighted, weighted and reweighted, keeping none, some and all edges.
func TestFilterColumnsMatchesReference(t *testing.T) {
	r := rng.New(11)
	const n = 40
	for _, directed := range []bool{false, true} {
		for _, mode := range []string{"unweighted", "weighted", "reweighted"} {
			edges := make([]graph.Edge, 250)
			for i := range edges {
				edges[i] = graph.Edge{U: graph.NodeID(r.Intn(n)), V: graph.NodeID(r.Intn(n)), W: 1}
				if mode == "weighted" {
					edges[i].W = float64(r.Intn(16)+1) / 4
				}
			}
			g := graph.FromEdges(n, directed, edges)
			if mode == "weighted" {
				g = graph.FromWeightedEdges(n, directed, edges)
			}
			pg := succinct.Pack(g, 1)
			eu, ev := g.EdgeColumns()
			peu, pev, _ := graph.EdgeColumnsOf(pg, 2)
			var reweight, rawWeight, packedWeight func(graph.EdgeID) float64
			switch mode {
			case "weighted":
				rawWeight, packedWeight = g.EdgeWeight, pg.EdgeWeight
			case "reweighted":
				reweight, rawWeight, packedWeight = reweightFor, reweightFor, reweightFor
			}
			for _, share := range []float64{0, 0.5, 1} {
				keep := graph.NewEdgeSet(g.M())
				var kept []graph.Edge
				for e := range graph.EdgeID(g.M()) {
					if r.Float64() < share {
						keep.Add(e)
						u, v := g.EdgeEndpoints(e)
						w := g.EdgeWeight(e)
						if reweight != nil {
							w = reweight(e)
						}
						kept = append(kept, graph.Edge{U: u, V: v, W: w})
					}
				}
				want := graph.ReferenceBuild(n, directed, mode != "unweighted", kept)
				for _, got := range []struct {
					name string
					g    *graph.Graph
				}{
					{"FilterEdgeSet", g.FilterEdgeSet(keep, reweight)},
					{"raw columns", graph.FilterColumns(n, directed, eu, ev, keep, rawWeight, 1)},
					{"packed columns", graph.FilterColumns(n, directed, peu, pev, keep, packedWeight, 2)},
				} {
					if err := got.g.Validate(); err != nil {
						t.Fatalf("directed=%v %s keeping %v, %s: %v", directed, mode, share, got.name, err)
					}
					if !got.g.Equal(want) {
						t.Fatalf("directed=%v %s keeping %v, %s: %v, ReferenceBuild %v", directed, mode, share, got.name, got.g, want)
					}
				}
			}
		}
	}
}

// FuzzFilterColumns builds a graph on n ≤ 64 vertices from the edge bytes
// (endpoints taken mod n, so self-loops and duplicates turn up) through
// FromEdges, keeps edge e when bit e of the keep bytes is set (cycling
// through them; none when there are none), and reweights the kept edges
// when bit 1 of flags is set (bit 0: directed). The filter at workers 1 and
// 3 must validate and equal ReferenceBuild over the kept edges.
func FuzzFilterColumns(f *testing.F) {
	f.Add(byte(5), byte(0), []byte{0, 1, 1, 2, 0, 2, 2, 3, 3, 4}, []byte{0x15})
	f.Add(byte(8), byte(1), []byte{0, 1, 1, 0, 2, 7, 7, 2, 3, 3, 6, 5}, []byte{0xff})
	f.Add(byte(6), byte(2), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0}, []byte{0xaa, 0x01})
	f.Add(byte(64), byte(3), []byte{63, 0, 0, 63, 12, 40}, []byte{})
	f.Fuzz(func(t *testing.T, nb, flags byte, edgeBytes, keepBytes []byte) {
		n := int(nb) % 65
		directed, reweighted := flags&1 != 0, flags&2 != 0
		var edges []graph.Edge
		if n > 0 {
			for rest := edgeBytes; len(rest) >= 2; rest = rest[2:] {
				edges = append(edges, graph.E(graph.NodeID(int(rest[0])%n), graph.NodeID(int(rest[1])%n)))
			}
		}
		g := graph.FromEdges(n, directed, edges)
		keep := graph.NewEdgeSet(g.M())
		var reweight func(graph.EdgeID) float64
		if reweighted {
			reweight = reweightFor
		}
		var kept []graph.Edge
		for e := range graph.EdgeID(g.M()) {
			if len(keepBytes) == 0 {
				break
			}
			bit := int(e) % (8 * len(keepBytes))
			if keepBytes[bit/8]>>(bit%8)&1 == 0 {
				continue
			}
			keep.Add(e)
			u, v := g.EdgeEndpoints(e)
			w := 1.0
			if reweighted {
				w = reweight(e)
			}
			kept = append(kept, graph.Edge{U: u, V: v, W: w})
		}
		want := graph.ReferenceBuild(n, directed, reweighted, kept)
		eu, ev := g.EdgeColumns()
		for _, workers := range []int{1, 3} {
			got := graph.FilterColumns(n, directed, eu, ev, keep, reweight, workers)
			if err := got.Validate(); err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if !got.Equal(want) {
				t.Fatalf("workers %d: filter builds %v, ReferenceBuild %v", workers, got, want)
			}
		}
	})
}
