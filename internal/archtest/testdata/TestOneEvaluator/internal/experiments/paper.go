package experiments

import (
	"slimgraph/internal/components"
	m "slimgraph/internal/metrics"
)

func figure8(a, b int) {
	m.BFSCritical(a, b) // want
	components.Count(a) // want
}
