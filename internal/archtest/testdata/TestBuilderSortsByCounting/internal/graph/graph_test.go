package graph

import "slices"

func referenceBuild(edges []int) { slices.Sort(edges) }
