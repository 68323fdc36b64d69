// Distributed-style compression (§7.3, Figure 8): uniform sampling with one
// worker per rank, the degree-balanced vertex ranges the ranks would own,
// and the degree-distribution check that the power-law shape survives.
package main

import (
	"fmt"
	"log"

	"slimgraph"
)

func main() {
	// The largest graph this example bothers to hold in memory: ~64k
	// vertices, ~1M edges (scale it up with graphgen for real runs).
	g := slimgraph.GenerateRMAT(16, 16, 99)
	fmt.Println("input:", g)
	slope, r2 := slimgraph.PowerLawSlope(slimgraph.DegreeDistribution(g))
	fmt.Printf("  degree power law: slope %.2f (R^2 %.2f)\n\n", slope, r2)

	for _, ranks := range []int{4, 16} {
		scheme, err := slimgraph.ParseScheme("uniform:p=0.6", // keep 60%
			slimgraph.WithSeed(7), slimgraph.WithWorkers(ranks))
		if err != nil {
			log.Fatal(err)
		}
		res, err := scheme.Apply(g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d ranks: %v\n", ranks, res)
		for rank, r := range slimgraph.PartitionByDegree(g, ranks) {
			var arcs int64
			for v := r.Lo; v < r.Hi; v++ {
				arcs += int64(g.Degree(v))
			}
			fmt.Printf("  rank %2d: owns vertices [%7d, %7d), %8d arcs\n", rank, r.Lo, r.Hi, arcs)
		}
		s, r := slimgraph.PowerLawSlope(slimgraph.DegreeDistribution(res.Output))
		fmt.Printf("  compressed power law: slope %.2f (R^2 %.2f)\n\n", s, r)
	}
	fmt.Println("The compressed graph is identical for any rank count: every")
	fmt.Println("random decision is keyed by the global edge ID, so adding ranks")
	fmt.Println("repartitions the work but never the outcome — the reproducible")
	fmt.Println("distributed runs of the paper.")
}
