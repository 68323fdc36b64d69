package graph_test

import (
	"fmt"
	"testing"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/succinct"
)

// TestWeightedMeansWeightColumn: Weighted() is false exactly when a graph
// holds no weight column, on every path that makes one — so an unweighted
// graph's EdgeWeight is 1 throughout, which is what lets an edge kernel's
// engine skip the lookup. Each graph is also read by an edge kernel, raw,
// packed and through an attached mapping: the EdgeView.Weight it sees must
// be EdgeWeight(e).
func TestWeightedMeansWeightColumn(t *testing.T) {
	r := rng.New(5)
	const n = 60
	edges := make([]graph.Edge, 300)
	for i := range edges {
		edges[i] = graph.WE(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)), float64(1+r.Intn(8))/4)
	}
	reweight := func(e graph.EdgeID) float64 { return float64(e%5) / 2 }
	type built struct {
		name   string
		g      *graph.Graph
		column bool
	}
	var cases []built
	for _, directed := range []bool{false, true} {
		for _, weighted := range []bool{false, true} {
			// AddEdges marks a graph weighted by any weight not 1, AddEdge
			// adds weight 1.
			b := graph.NewBuilder(n, directed)
			for _, e := range edges {
				if weighted {
					b.AddEdges([]graph.Edge{e})
				} else {
					b.AddEdge(e.U, e.V)
				}
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			canon, err := graph.FromCanonicalEdges(n, directed, weighted, g.Edges(), 2)
			if err != nil {
				t.Fatal(err)
			}
			some, all := graph.NewEdgeSet(g.M()), graph.NewEdgeSet(g.M())
			all.Fill()
			for e := 0; e < g.M(); e += 3 {
				some.Add(graph.EdgeID(e))
			}
			eu, ev := g.EdgeColumns()
			var weight func(graph.EdgeID) float64
			if weighted {
				weight = g.EdgeWeight
			}
			kind := fmt.Sprintf("directed=%v weighted=%v", directed, weighted)
			cases = append(cases,
				built{kind + " Builder", g, weighted},
				built{kind + " FromCanonicalEdges", canon, weighted},
				built{kind + " FilterEdgeSet", g.FilterEdgeSet(some, nil), weighted},
				built{kind + " FilterEdgeSet keeping all", g.FilterEdgeSet(all, nil), weighted},
				built{kind + " FilterEdgeSet reweighted", g.FilterEdgeSet(some, reweight), true},
				built{kind + " FilterEdgeSet keeping all reweighted", g.FilterEdgeSet(all, reweight), true},
				built{kind + " Reweight", g.Reweight(reweight), true},
				built{kind + " FilterColumns", graph.FilterColumns(n, directed, eu, ev, some, weight, 2), weighted},
				built{kind + " FilterColumns reweighted", graph.FilterColumns(n, directed, eu, ev, some, reweight, 2), true},
			)
		}
	}
	for _, c := range cases {
		if got := graph.HasWeightColumn(c.g); got != c.column || c.g.Weighted() != got {
			t.Fatalf("%s: Weighted() %v, weight column %v, want %v", c.name, c.g.Weighted(), got, c.column)
		}
		pg := succinct.Pack(c.g, 2)
		if column := pg.Stats().WeightBytes > 0; pg.Weighted() != c.column || column != c.column {
			t.Fatalf("%s packed: Weighted() %v, weight column %v, want %v", c.name, pg.Weighted(), column, c.column)
		}
		mapped, err := succinct.AttachServable(succinct.AppendServable(nil, pg))
		if err != nil {
			t.Fatal(err)
		}
		if column := mapped.Stats().WeightBytes > 0; mapped.Weighted() != c.column || column != c.column {
			t.Fatalf("%s mapped: Weighted() %v, weight column %v, want %v", c.name, mapped.Weighted(), column, c.column)
		}
		for _, in := range []struct {
			form string
			a    graph.AdjacencyEdges
		}{{"raw", c.g}, {"packed", pg}, {"mapped", mapped}} {
			seen := make([]float64, in.a.M())
			core.New(in.a, 1, 2).RunEdgeKernel(func(_ *core.SG, _ *rng.Rand, e core.EdgeView) { seen[e.ID] = e.Weight })
			for e, w := range seen {
				if want := in.a.EdgeWeight(graph.EdgeID(e)); w != want || (!c.column && w != 1) {
					t.Fatalf("%s %s: edge %d: kernel sees weight %v, EdgeWeight %v", c.name, in.form, e, w, want)
				}
			}
		}
	}
}
