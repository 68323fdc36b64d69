// Web-graph storage and analytics: spectral sparsification and lossy
// ε-summarization of a power-law hyperlink-style graph, with the
// degree-distribution analysis of Figures 7/8 ("spanners strengthen the
// power law") and on-disk storage accounting.
package main

import (
	"fmt"

	"slimgraph"
)

func main() {
	g := slimgraph.GenerateBarabasiAlbert(50000, 10, 23)
	fmt.Println("web graph:", g)
	origBytes := slimgraph.BinarySize(g)
	slope, r2 := slimgraph.PowerLawSlope(slimgraph.DegreeDistribution(g))
	fmt.Printf("  snapshot: %d KiB, degree power law: slope %.2f (R^2 %.2f)\n\n",
		origBytes/1024, slope, r2)

	// Spectral sparsification preserves the spectrum (and PageRank) while
	// thinning dense neighborhoods. Reweight=false keeps the snapshot
	// unweighted (8 bytes/edge); pass Reweight=true when downstream
	// algorithms need the unbiased Laplacian instead of minimal storage.
	origPR := slimgraph.PageRank(g, 0)
	spec := compress(g, "spectral:p=1,variant=logn", 9)
	fmt.Println(spec)
	fmt.Printf("  KL(PageRank): %.4f, snapshot now %d KiB\n",
		slimgraph.KLDivergence(origPR, slimgraph.PageRank(spec.Output, 0)),
		slimgraph.BinarySize(spec.Output)/1024)

	// Spanners at growing k: degree distributions straighten out.
	fmt.Printf("\n%-14s %10s %8s %8s\n", "compression", "edges", "slope", "R^2")
	fmt.Printf("%-14s %10d %8.2f %8.2f\n", "none", g.M(), slope, r2)
	for _, k := range []int{2, 32} {
		res := compress(g, fmt.Sprintf("spanner:k=%d", k), 9)
		s, r := slimgraph.PowerLawSlope(slimgraph.DegreeDistribution(res.Output))
		fmt.Printf("spanner k=%-4d %10d %8.2f %8.2f\n", k, res.Output.M(), s, r)
	}

	// Lossy summarization pays off when pages share neighborhoods (link
	// templates, mirrored sections) — preferential attachment alone has
	// none, so summarize a template-heavy site-cluster analog instead.
	sites := slimgraph.GenerateCommunities(20000, 25, 0.8, 20000, 27)
	sum := slimgraph.Summarize(sites, slimgraph.SummarizeOptions{
		Iterations: 8, Epsilon: 0.1, Seed: 9})
	fmt.Printf("\nsite clusters: %v\n%s\n", sites, sum)
	dec := sum.Decode()
	fmt.Printf("  decoded m: %d (original %d; ε bounds the drift by 2εm = %.0f)\n",
		dec.M(), sites.M(), 0.2*float64(sites.M()))
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
