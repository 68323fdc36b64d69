package triangles

import (
	"fmt"
	"slices"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Forward is the count-only triangle substrate: the rank-oriented forward
// CSR and a per-vertex work prefix, nothing else.
//
// Orientation invariant: vertices are ranked by the key (degree, ID), and the
// forward list F(v) holds exactly the neighbors w with rank(w) > rank(v), in
// ascending ID order. |F(v)| = O(√m) for every v, which bounds every scan and
// yields the O(m^{3/2}) total of Table 2. The structure is identical for any
// worker count and for every representation of the same logical graph.
//
// Counting is the forward algorithm (Schank & Wagner): for each vertex a,
// stamp F(a), scan F(b) against the stamps for every b in F(a), and erase
// the stamps by walking F(a) again, so a triangle with rank(a) < rank(b) <
// rank(c) is counted once, at a. Stamp invariant: stamp[w] = 1 exactly for
// the w in F(a) while a is counted, and the array is all-zero between
// vertices, so a range never inherits stamps and any cut of the vertex order
// is valid. The array — one byte per vertex, L1-resident where emission's
// int32 marks are not — is scratch of the counting call, not in SizeBytes.
type Forward struct {
	workers int
	off     []int64        // n+1 offsets of the lists in nbr
	nbr     []graph.NodeID // F(v) for every v, back to back
	work    []int64        // work[v] = counting cost of vertices [0, v), see weigh
}

// NewForward builds the count-only substrate of a in one ScanInLists pass
// that keeps each neighbor ranked above its vertex. workers <= 0 uses all
// CPUs; the same value drives every count on the result. A packed list that
// decodes to a neighbor outside [0, n), or lists holding more forward arcs
// than a has edges, panic as a corrupt packed graph rather than index out of
// range. Directed graphs are not supported: callers must symmetrize first.
func NewForward(a graph.AdjacencyEdges, workers int) *Forward {
	if a.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	n, key := a.N(), rankKeys(a, workers)
	f := &Forward{workers: workers, off: make([]int64, n+1)}
	blocks := parallel.Blocks(n, 0, workers)
	lists := make([][]graph.NodeID, blocks)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		var out []graph.NodeID
		a.ScanInLists(graph.NodeID(lo), graph.NodeID(hi), nil, func(v graph.NodeID, nbrs []graph.NodeID) {
			k0, k, kv := len(out), len(out), key[v]
			out = slices.Grow(out, len(nbrs))[:k+len(nbrs)]
			for _, w := range nbrs {
				if uint(w) >= uint(n) {
					panic(fmt.Sprintf("triangles: corrupt packed graph: vertex %d lists neighbor %d of %d", v, w, n))
				}
				out[k] = w // written always, kept only if ranked above v (k moves past it)
				if key[w] > kv {
					k++
				}
			}
			out, f.off[v] = out[:k], int64(k-k0)
		})
		lists[b] = out
	})
	if arcs := parallel.ExclusiveScan(f.off, workers); arcs > int64(a.M()) {
		panic(fmt.Sprintf("triangles: corrupt packed graph: %d forward arcs over %d edges", arcs, a.M()))
	}
	f.nbr = make([]graph.NodeID, f.off[n])
	parallel.ForBlocks(n, blocks, workers, func(b, lo, _ int) { copy(f.nbr[f.off[lo]:], lists[b]) })
	f.weigh()
	return f
}

// rankKeys returns the rank key degree<<32 | ID of every vertex.
func rankKeys(a graph.Adjacency, workers int) []uint64 {
	key := make([]uint64, a.N())
	parallel.For(len(key), workers, func(v int) {
		key[v] = uint64(a.Degree(graph.NodeID(v)))<<32 | uint64(uint32(v))
	})
	return key
}

// weigh fills the work prefix: vertex a costs one step, stamping and erasing
// F(a), and |F(b)|+1 for every b in F(a).
func (f *Forward) weigh() {
	n := len(f.off) - 1
	f.work = make([]int64, n+1)
	parallel.ForChunks(n, f.workers, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			w := 1 + 2*(f.off[a+1]-f.off[a])
			for _, b := range f.nbr[f.off[a]:f.off[a+1]] {
				w += f.off[b+1] - f.off[b] + 1
			}
			f.work[a] = w
		}
	})
	parallel.ExclusiveScan(f.work, f.workers)
}

// SizeBytes is the heap the substrate holds: offsets, lists and work prefix,
// at most 16(n+1) + 4m bytes. A catalog charges it to its memory budget.
func (f *Forward) SizeBytes() int64 {
	return int64(len(f.off))*8 + int64(len(f.nbr))*4 + int64(len(f.work))*8
}

// WithWorkers returns a copy that counts with the given parallelism while
// sharing the built structure, which never depends on the worker count —
// what lets a server cache one substrate per graph.
func (f *Forward) WithWorkers(workers int) *Forward {
	c := *f
	c.workers = workers
	return &c
}

// countRange counts the triangles whose rank-lowest vertex lies in [lo, hi)
// against stamp, an all-zero array of n entries.
func (f *Forward) countRange(lo, hi int, stamp []uint8) int64 {
	var c int64
	for a := lo; a < hi; a++ {
		fa := f.nbr[f.off[a]:f.off[a+1]]
		for _, w := range fa {
			stamp[w] = 1
		}
		for _, b := range fa {
			for _, w := range f.nbr[f.off[b]:f.off[b+1]] {
				c += int64(stamp[w])
			}
		}
		for _, w := range fa {
			stamp[w] = 0
		}
	}
	return c
}

// Count returns the number of triangles.
func (f *Forward) Count() int64 { return f.CountPart(0, 1) }

// CountPart counts the triangles whose rank-lowest vertex lies in part i of
// the vertex order cut into `of` slices of equal counting work — the same
// cut the workers claim grains by, so a part is a fair share of Count's
// time. The slices tile the vertex order: for every of >= 1 the parts sum to
// Count(), which is how a cluster spreads one exact count over shards that
// each hold the whole graph. Each worker adds into its own padded counter,
// against its own stamps; integer addition commutes, so the result is
// independent of the worker count.
func (f *Forward) CountPart(i, of int) int64 {
	lo, hi := parallel.BalancedCut(f.work, i, of), parallel.BalancedCut(f.work, i+1, of)
	nw := parallel.Resolve(f.workers, hi-lo)
	const pad = 8 // one cache line per counter
	acc := make([]int64, nw*pad)
	per := make([][]uint8, nw)
	parallel.ForBalancedWorker(hi-lo, f.workers, f.work[lo:hi+1], func(w, a, b int) {
		if per[w] == nil {
			per[w] = make([]uint8, len(f.off)-1)
		}
		acc[w*pad] += f.countRange(lo+a, lo+b, per[w])
	})
	var total int64
	for w := 0; w < nw; w++ {
		total += acc[w*pad]
	}
	return total
}
