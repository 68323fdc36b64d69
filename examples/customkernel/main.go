// Writing a custom compression kernel: the Slim Graph programming model is
// not limited to the built-in schemes. This example implements a
// "weak-ties" kernel — remove edges whose endpoints share no other common
// neighbor (edges in no triangle), keeping community cores intact — in a
// dozen lines, plus a vertex kernel stacked on top. It ends by registering
// the kernel with a parameter table, which makes it a scheme like any other:
// addressable from a spec string, chainable in a pipeline.
package main

import (
	"fmt"
	"log"
	"time"

	"slimgraph"
)

// weakTies drops each edge that closes no triangle with probability p, then
// prunes the vertices that isolated. g may be a Graph or a packed or mapped
// one: both kernels read it as it is.
func weakTies(g slimgraph.AdjacencyEdges, p float64, seed uint64, workers int) *slimgraph.Graph {
	// Pass 1 (triangle kernel): mark every edge that closes a triangle.
	inTriangle := slimgraph.NewEdgeSet(g.M())
	sg := slimgraph.NewSG(g, seed, workers)
	sg.RunTriangleKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, t slimgraph.TriangleView) {
		for _, e := range t.E {
			inTriangle.Add(e)
		}
	})
	// Pass 2 (edge kernel): drop weak ties — edges in no triangle — with
	// probability p.
	sg.RunEdgeKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, e slimgraph.EdgeView) {
		if !inTriangle.Contains(e.ID) && r.Float64() < p {
			sg.Del(e.ID)
		}
	})
	// Pass 3 (vertex kernel): fully prune vertices the weak-tie removal
	// isolated.
	weak := sg.Materialize()
	sg2 := slimgraph.NewSG(weak, seed, workers)
	sg2.RunVertexKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, v slimgraph.VertexView) {
		if v.Deg == 0 {
			sg.DelVertex(v.ID)
		}
	})
	return sg2.Materialize()
}

func main() {
	g := slimgraph.GenerateCommunities(10000, 20, 0.5, 30000, 31)
	fmt.Println("input:", g)
	origCC := slimgraph.ComponentCount(g)

	out := weakTies(g, 0.7, 1, 0)

	fmt.Printf("weak-ties kernel: m %d -> %d (%.1f%% reduction)\n",
		g.M(), out.M(), 100*(1-float64(out.M())/float64(g.M())))
	fmt.Printf("components: %d -> %d (weak ties were the bridges)\n",
		origCC, slimgraph.ComponentCount(out))
	fmt.Printf("triangles:  %d -> %d (community cores untouched)\n",
		slimgraph.TriangleCount(g, 0), slimgraph.TriangleCount(out, 0))
	fmt.Println("\nThree kernels, one scheme: the same local-view model the")
	fmt.Println("paper's built-in schemes use is available for custom designs.")

	// A kernel plus a parameter table is a registry entry. The registry
	// parses p from the spec, checks it against [0, 1], defaults it, prints
	// it back canonically, and hands the kernel its seed and worker budget.
	slimgraph.RegisterScheme(slimgraph.SchemeInfo{
		Name:   "weakties",
		About:  "drop edges in no triangle w.p. p, then isolated vertices",
		Params: []slimgraph.SchemeParam{{Key: "p", Kind: slimgraph.ParamFloat, Default: "0.5", Min: 0, Max: 1}},
		Apply: func(g slimgraph.AdjacencyEdges, a slimgraph.SchemeArgs) (*slimgraph.Result, error) {
			return &slimgraph.Result{Output: weakTies(g, a.Float("p"), a.Seed, a.Workers)}, nil
		},
	})
	scheme, err := slimgraph.ParseScheme("weakties:p=0.7|lowdeg", slimgraph.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	res, err := scheme.Apply(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistered as a scheme, %q runs like a built-in:\n", slimgraph.SchemeSpec(scheme))
	for _, st := range res.Breakdown() {
		fmt.Printf("  stage %-16s m -> %d in %v\n", st.Spec, st.M, st.Elapsed.Round(time.Millisecond))
	}
	if _, err := slimgraph.ParseScheme("weakties:p=1.5"); err != nil {
		fmt.Println("and the table guards it:", err)
	}
}
