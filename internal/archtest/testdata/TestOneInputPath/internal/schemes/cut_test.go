package schemes

import "slimgraph/internal/graph"

func decoded(in any) any { return graph.CSROf(in, 1) }
