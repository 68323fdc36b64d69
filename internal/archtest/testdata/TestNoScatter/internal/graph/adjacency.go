package graph

func DegreeCuts(n, parts int) func(int) int { return func(k int) int { return k * n / parts } }

func PartitionByDegree(n, parts int) []int { return []int{DegreeCuts(n, parts)(0)} }
