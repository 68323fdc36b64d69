package slimgraph_test

import (
	"fmt"

	"slimgraph"
)

// The smallest complete pipeline: compress, process, evaluate. Results are
// deterministic for a fixed seed — for tr, as for every scheme whose kernel
// instances share no state (see Scheme.Apply), at any worker count.
func Example() {
	// A triangle with a tail: 0-1-2 closed, 2-3 pendant.
	g := slimgraph.FromEdges(4, false, []slimgraph.Edge{
		slimgraph.E(0, 1), slimgraph.E(1, 2), slimgraph.E(0, 2), slimgraph.E(2, 3),
	})
	// Triangle Reduction removes one edge of the (only) triangle and never
	// touches the tail.
	tr, err := slimgraph.ParseScheme("tr:p=1", slimgraph.WithSeed(7), slimgraph.WithWorkers(1))
	if err != nil {
		panic(err)
	}
	res, err := tr.Apply(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("edges before:", g.M())
	fmt.Println("edges after: ", res.Output.M())
	fmt.Println("tail intact: ", res.Output.HasEdge(2, 3))
	fmt.Println("components:  ", slimgraph.ComponentCount(res.Output))
	// Output:
	// edges before: 4
	// edges after:  3
	// tail intact:  true
	// components:   1
}

// Writing a custom compression kernel with the programming model.
func ExampleNewSG() {
	g := slimgraph.FromEdges(5, false, []slimgraph.Edge{
		slimgraph.E(0, 1), slimgraph.E(1, 2), slimgraph.E(2, 3), slimgraph.E(3, 4),
	})
	sg := slimgraph.NewSG(g, 1, 1)
	// Deterministic kernel: delete every edge incident to vertex 2.
	sg.RunEdgeKernel(func(sg *slimgraph.SG, r *slimgraph.Rand, e slimgraph.EdgeView) {
		if e.U == 2 || e.V == 2 {
			sg.Del(e.ID)
		}
	})
	out := sg.Materialize()
	fmt.Println("m:", out.M())
	fmt.Println("components:", slimgraph.ComponentCount(out))
	// Output:
	// m: 2
	// components: 3
}

// Lossless summarization round-trips exactly; the summary stores fewer
// records than the graph has edges when structure repeats.
func ExampleSummarize() {
	g := slimgraph.FromEdges(6, false, []slimgraph.Edge{
		// K4 on {0,1,2,3} plus two pendant twins attached to 0 and 1.
		slimgraph.E(0, 1), slimgraph.E(0, 2), slimgraph.E(0, 3),
		slimgraph.E(1, 2), slimgraph.E(1, 3), slimgraph.E(2, 3),
		slimgraph.E(0, 4), slimgraph.E(1, 4),
		slimgraph.E(0, 5), slimgraph.E(1, 5),
	})
	s := slimgraph.Summarize(g, slimgraph.SummarizeOptions{Iterations: 6, Seed: 3, Workers: 1})
	fmt.Println("lossless decode matches:", s.Decode().M() == g.M())
	// Output:
	// lossless decode matches: true
}
