// Quickstart: compress a social-network-style graph three ways and measure
// what each scheme did to PageRank, connectivity, and triangles — the
// minimal end-to-end tour of the Slim Graph pipeline (compress -> run
// algorithms -> evaluate accuracy).
package main

import (
	"fmt"

	"slimgraph"
)

func main() {
	// Stage 0: an R-MAT graph standing in for a small social network.
	g := slimgraph.GenerateRMAT(13, 8, 42)
	fmt.Println("input:", g)
	origPR := slimgraph.PageRank(g, 0)
	origCC := slimgraph.ComponentCount(g)
	origT := slimgraph.TriangleCount(g, 0)
	fmt.Printf("  components=%d triangles=%d\n\n", origCC, origT)

	// Stage 1: three compression kernels with very different contracts.
	results := []*slimgraph.Result{
		compress(g, "uniform:p=0.5", 1), // keep half the edges
		compress(g, "tr-eo:p=0.8", 1),
		compress(g, "spanner:k=8", 1),
	}

	// Stage 2: run the algorithms on each compressed graph and compare.
	fmt.Printf("%-28s %8s %10s %6s %12s\n", "scheme", "ratio", "KL(PR)", "CC", "triangles")
	for _, res := range results {
		compPR := slimgraph.PageRank(res.Output, 0)
		fmt.Printf("%-28s %8.3f %10.4f %6d %12d\n",
			res.Scheme+"("+res.Params+")",
			res.CompressionRatio(),
			slimgraph.KLDivergence(origPR, compPR),
			slimgraph.ComponentCount(res.Output),
			slimgraph.TriangleCount(res.Output, 0))
	}
	fmt.Println("\nNote how Edge-Once Triangle Reduction preserves the component")
	fmt.Println("count exactly, uniform sampling preserves triangle counts in")
	fmt.Println("expectation, and the spanner trades triangles for distance bounds.")
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
