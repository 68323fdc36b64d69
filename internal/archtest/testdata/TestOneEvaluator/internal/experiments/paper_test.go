package experiments

import "slimgraph/internal/metrics"

func sanity(a, b int) { metrics.KLDivergence(a, b) }
