package centrality

import "slimgraph/internal/graph"

func PageRank(g graph.Adjacency) []float64 {
	for it := 0; it < 10; it++ {
		g.ScanInLists(0, g.N(), nil) // want
	}
	return nil
}

func PowerIterate(g graph.Adjacency) []float64 { return nil } // want
