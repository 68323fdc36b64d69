package triangles

import "slimgraph/internal/parallel"

// CountSlice counts the triangles of f whose rank-lowest vertex lies in
// slice i of the vertex order cut into `of` slices of equal counting work,
// against a fresh stamp array: the slices tile the order, so their counts
// add up to Count for every of >= 1, as the grains Count's workers claim do.
func CountSlice(f *Forward, i, of int) int64 {
	lo, hi := parallel.BalancedCut(f.work, i, of), parallel.BalancedCut(f.work, i+1, of)
	return f.countRange(lo, hi, make([]uint8, len(f.off)-1))
}
