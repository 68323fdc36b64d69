package graph

import "sort"

func build(edges []int) int {
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] }) // want
	return sort.Search(len(edges), func(i int) bool { return edges[i] >= 3 })
}
