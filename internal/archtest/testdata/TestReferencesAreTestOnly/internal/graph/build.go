package graph

import (
	"slimgraph/internal/oracle" // want
)

func ReferenceBuild(n int) int { return oracle.Count(n) } // want
