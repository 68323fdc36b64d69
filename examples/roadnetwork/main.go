// Road-network processing: spanners vs shortest paths and MST-preserving
// Triangle Reduction on a weighted grid — the paper's weighted-graph
// story (§7.1): road networks barely compress under TR (almost no
// triangles), spanners bound every distance, and the max-weight TR variant
// keeps the MST weight exactly.
package main

import (
	"fmt"
	"math"

	"slimgraph"
)

func main() {
	// A 200x200 grid with diagonal shortcuts and uniform travel costs:
	// 40k intersections, road-like sparsity.
	base := slimgraph.GenerateGrid(200, 200, true)
	g := slimgraph.WithUniformWeights(base, 1, 10, 11)
	fmt.Println("road network:", g)

	origDist, _ := slimgraph.Dijkstra(g, 0)
	origMST := slimgraph.MSTWeight(g)
	fmt.Printf("  MST weight: %.1f, diameter (hops): %d\n\n", origMST, slimgraph.Diameter(g, 0))

	// Spanners: distance stretch vs compression.
	fmt.Printf("%-14s %8s %14s %14s\n", "scheme", "ratio", "mean stretch", "max stretch")
	for _, k := range []int{2, 4, 8} {
		res := compress(g, fmt.Sprintf("spanner:k=%d", k), 5)
		dist, _ := slimgraph.Dijkstra(res.Output, 0)
		mean, max := stretch(origDist, dist)
		fmt.Printf("spanner k=%-3d %9.3f %14.3f %14.3f\n", k, res.CompressionRatio(), mean, max)
	}

	// Max-weight TR: exact MST preservation, tiny compression on roads.
	tr := compress(g, "tr-maxweight:p=1", 5)
	fmt.Printf("\nmax-weight TR: ratio %.3f (roads have few triangles)\n", tr.CompressionRatio())
	fmt.Printf("  MST weight: %.1f -> %.1f (preserved exactly: %v)\n",
		origMST, slimgraph.MSTWeight(tr.Output),
		math.Abs(origMST-slimgraph.MSTWeight(tr.Output)) < 1e-9)

	// SSSP on the compressed road network still works end to end.
	ds := slimgraph.DeltaStepping(tr.Output, 0, 0, 0)
	reachable := 0
	for _, d := range ds {
		if !math.IsInf(d, 1) {
			reachable++
		}
	}
	fmt.Printf("  SSSP on compressed graph reaches %d/%d intersections\n", reachable, g.N())
}

// stretch compares per-vertex distances, returning mean and max ratio over
// vertices reachable in both graphs.
func stretch(orig, comp []float64) (mean, max float64) {
	count := 0
	for v := range orig {
		if math.IsInf(orig[v], 1) || math.IsInf(comp[v], 1) || orig[v] == 0 {
			continue
		}
		r := comp[v] / orig[v]
		mean += r
		if r > max {
			max = r
		}
		count++
	}
	if count > 0 {
		mean /= float64(count)
	}
	return mean, max
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
