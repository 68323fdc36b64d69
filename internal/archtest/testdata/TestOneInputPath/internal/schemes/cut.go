package schemes

import "slimgraph/internal/graph"

func summarizeDecoded(in any) any { return graph.CSROf(in, 1) }

func cut(in any) any { return graph.CSROf(in, 1) } // want

// spanner decodes through graph.CSROf no more.
func spanner(in any) any {
	g := graph.CSROf(in, 1) // want
	return g
}
