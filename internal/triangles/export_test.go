package triangles

import "slimgraph/internal/parallel"

// CountSlice counts the triangles of f whose rank-lowest vertex lies in
// slice i of the vertex order cut into `of` slices of equal counting work,
// against a fresh stamp array. The cuts fall on work blocks, so slice i runs
// from vertex 64·cut(i) to the lesser of 64·cut(i+1) and n: the slices tile
// the order, and their counts add up to Count for every of >= 1, as the
// grains Count's workers claim do.
func CountSlice(f *Forward, i, of int) int64 {
	n := len(f.off) - 1
	lo, hi := parallel.BalancedCut(f.work, i, of), parallel.BalancedCut(f.work, i+1, of)
	return f.kernel()(lo*blockSize, min(hi*blockSize, n), make([]uint8, n))
}
