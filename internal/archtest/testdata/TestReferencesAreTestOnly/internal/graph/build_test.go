package graph

import "slimgraph/internal/oracle"

func ReferenceList(n int) int { return oracle.Count(n) }
