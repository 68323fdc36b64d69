package cluster

import "slimgraph/internal/centrality"

const pull = "pr-pull" // want

func expandFrontier(f []int) []int { return f } // want

func rounds(g int) []float64 { return centrality.PowerIterate(g) } // want
