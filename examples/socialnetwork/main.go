// Social-network analytics on a compressed graph: Triangle Reduction
// variants on a community-structured graph, checking which analytics
// survive — connected components, matchings, coloring, betweenness
// ordering. This is the workload class (friendship graphs, §7.1-7.2) that
// motivates TR in the paper.
package main

import (
	"fmt"

	"slimgraph"
)

func main() {
	// A graph with planted communities: dense 25-vertex groups plus random
	// inter-community friendships (very high triangles-per-vertex, like
	// the paper's s-cds).
	g := slimgraph.GenerateCommunities(8000, 25, 0.5, 12000, 7)
	fmt.Println("social graph:", g)
	fmt.Printf("  triangles/vertex: %.1f\n", float64(3*slimgraph.TriangleCount(g, 0))/float64(g.N()))

	origCC := slimgraph.ComponentCount(g)
	origMatch := slimgraph.MatchingSize(g)
	origColor := slimgraph.ColoringNumber(g)
	sources := make([]slimgraph.NodeID, 64)
	for i := range sources {
		sources[i] = slimgraph.NodeID(i * (g.N() / 64))
	}
	origBC := slimgraph.BetweennessSampled(g, sources, 0)

	fmt.Printf("\n%-12s %8s %6s %9s %8s %12s\n",
		"variant", "ratio", "CC", "matching", "colors", "BC reorder")
	fmt.Printf("%-12s %8s %6d %9d %8d %12s\n", "original", "1.000",
		origCC, origMatch, origColor, "-")
	for _, variant := range []struct {
		name, spec string
	}{
		{"basic", "tr:p=0.5"},
		{"EO", "tr-eo:p=0.5"},
		{"CT", "tr-ct:p=0.5"},
	} {
		res := compress(g, variant.spec, 3)
		compBC := slimgraph.BetweennessSampled(res.Output, sources, 0)
		fmt.Printf("%-12s %8.3f %6d %9d %8d %12.4f\n",
			variant.name, res.CompressionRatio(),
			slimgraph.ComponentCount(res.Output),
			slimgraph.MatchingSize(res.Output),
			slimgraph.ColoringNumber(res.Output),
			slimgraph.ReorderedNeighborPairs(g, origBC, compBC))
	}

	// Triangle collapse shrinks the vertex set itself.
	col := compress(g, "tr-collapse:p=0.3", 3)
	fmt.Printf("\ncollapse(p=0.3): n %d -> %d, m %d -> %d\n",
		g.N(), col.Output.N(), g.M(), col.Output.M())

	fmt.Println("\nTable 3's promises hold: EO keeps every component intact and the")
	fmt.Println("matching within 2/3; the coloring number shrinks by at most ~1/3.")
}

// compress applies a registry spec to g; the examples' specs are fixed, so
// an error is a bug.
func compress(g *slimgraph.Graph, spec string, seed uint64) *slimgraph.Result {
	s, err := slimgraph.ParseScheme(spec, slimgraph.WithSeed(seed))
	if err != nil {
		panic(err)
	}
	res, err := s.Apply(g)
	if err != nil {
		panic(err)
	}
	return res
}
