package experiments

import "slimgraph/internal/metrics"

func evaluate(a, b int) {
	metrics.CompareGraphs(a, b) // want
	metrics.KLDivergence(a, b)
	metrics.CompareGraphs(b, a) // want
}
