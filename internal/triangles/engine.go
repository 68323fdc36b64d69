package triangles

import (
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Engine is a precomputed, reusable triangle-enumeration substrate: the
// rank permutation and rank-oriented forward CSR built once, then shared by
// every enumeration (ForEachBatch, ForEach, Count, PerVertex, PerEdge, List)
// and by core.RunTriangleKernel. Construction is O(n + m) on top of the
// input CSR and uses only the deterministic primitives of internal/parallel,
// so the structure — and every result derived from it — is bit-identical for
// any worker count.
//
// Orientation invariant: vertices are ranked by the key (degree, ID), and
// the forward list F(v) holds exactly the neighbors w with
// rank(w) > rank(v), each carrying the canonical EdgeID of {v, w}. Every
// triangle {a, b, c} with rank(a) < rank(b) < rank(c) therefore appears in
// exactly one intersection — F(a) ∩ F(b), discovered from its rank-lowest
// edge {a, b} — and |F(v)| = O(√m) for every v, which bounds each
// intersection and yields the O(m^{3/2}) total of Table 2.
//
// Forward lists are stored sorted by neighbor ID, not by rank. Any shared
// total order supports the intersection; ID order additionally makes the
// sequential enumeration emit triangles in exactly the reference order
// (ascending lowest edge, then ascending third vertex), which keeps
// Edge-Once kernels bit-identical to the pre-engine implementation.
type Engine struct {
	g       graph.AdjacencyEdges
	workers int

	key []uint64 // rank key per vertex: degree<<32 | ID

	// Canonical edge columns: zero-copy views into the raw CSR when the
	// representation exposes them, otherwise decoded once at build time.
	eu, ev []graph.NodeID

	// Forward CSR: off has length n+1; nbr/eid hold, for each vertex, its
	// higher-ranked neighbors in increasing ID order with canonical EdgeIDs.
	off []int64
	nbr []graph.NodeID
	eid []graph.EdgeID

	// work[e] = total intersection cost of edges [0, e) — the prefix-summed
	// per-edge estimate |F(u)|+|F(v)|+1 that drives balanced scheduling.
	work []int64

	// ownsCols records whether eu/ev were allocated by the build (decoded
	// from a packed form) rather than borrowed zero-copy from a raw CSR —
	// SizeBytes only charges the arena for columns it owns.
	ownsCols bool
}

// NewEngine builds the enumeration substrate for any canonical-edge view —
// *graph.Graph or succinct.PackedGraph alike, which is how the server counts
// triangles on packed graphs without materializing a raw CSR. For a fixed
// logical graph the built structure and every result are bit-identical
// across representations and worker counts. workers <= 0 uses all CPUs; the
// same value drives every subsequent enumeration on the engine. Directed
// graphs are not supported: callers must symmetrize first.
func NewEngine(a graph.AdjacencyEdges, workers int) *Engine {
	if a.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	n, m := a.N(), a.M()
	en := &Engine{g: a, workers: workers}

	en.key = make([]uint64, n)
	parallel.For(n, workers, func(v int) {
		en.key[v] = uint64(a.Degree(graph.NodeID(v)))<<32 | uint64(uint32(v))
	})

	en.eu, en.ev, en.ownsCols = graph.EdgeColumnsOf(a, workers)

	// Edge-centric forward fill: stably scatter every canonical edge to its
	// lower-rank endpoint. Edges arrive in canonical (u, v) order, so the
	// arcs landing at vertex v are its lower-ID neighbors ascending (edges
	// (w, v), sorted by w) followed by its higher-ID neighbors ascending
	// (edges (v, w), sorted by w) — overall ascending by neighbor ID, with
	// canonical EdgeIDs. That is bit-identical to a per-vertex rank-filtered
	// fill of the raw CSR, without needing per-vertex edge views.
	en.nbr = make([]graph.NodeID, m)
	en.eid = make([]graph.EdgeID, m)
	lowRank := func(e int) int {
		u, v := en.eu[e], en.ev[e]
		if en.key[v] < en.key[u] {
			return int(v)
		}
		return int(u)
	}
	en.off = parallel.CountingScatter(m, n, workers, lowRank, func(e int, pos int64) {
		u, v := en.eu[e], en.ev[e]
		if en.key[v] < en.key[u] {
			u, v = v, u
		}
		en.nbr[pos] = v
		en.eid[pos] = graph.EdgeID(e)
	})

	en.work = make([]int64, m+1)
	parallel.ForBlocks(m, parallel.Blocks(m, 0, workers), workers, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			u, v := en.eu[e], en.ev[e]
			en.work[e] = (en.off[u+1] - en.off[u]) + (en.off[v+1] - en.off[v]) + 1
		}
	})
	parallel.ExclusiveScan(en.work, workers)
	return en
}

// NewEngineOn forwards to NewEngine for benchmark/ (frozen); the next benchmark PR deletes it.
func NewEngineOn(a graph.AdjacencyEdges, workers int) *Engine { return NewEngine(a, workers) }

// SizeBytes estimates the heap bytes the engine's arena holds: the rank
// keys, the forward CSR (offsets, neighbor and edge-ID columns), the
// scheduling prefix sums, and the canonical edge columns when the build
// decoded its own copy (a raw CSR lends them zero-copy and is charged
// nothing here). A catalog uses this to account triangle arenas against its
// memory budget.
func (en *Engine) SizeBytes() int64 {
	b := int64(len(en.key))*8 + int64(len(en.off))*8 + int64(len(en.work))*8
	b += int64(len(en.nbr))*4 + int64(len(en.eid))*4
	if en.ownsCols {
		b += int64(len(en.eu))*4 + int64(len(en.ev))*4
	}
	return b
}

// Graph returns the canonical-edge view the engine was built for.
func (en *Engine) Graph() graph.AdjacencyEdges { return en.g }

// Workers returns the configured parallelism.
func (en *Engine) Workers() int { return en.workers }

// WithWorkers returns a copy of the engine that enumerates with the given
// parallelism while sharing the built structure. The structure never depends
// on the worker count, so results from the copy are identical to rebuilding
// the engine with that count — this is what lets a server cache one engine
// per graph and serve queries with per-request worker settings.
func (en *Engine) WithWorkers(workers int) *Engine {
	c := *en
	c.workers = workers
	return &c
}

// forward returns F(v) as parallel neighbor/edge views.
func (en *Engine) forward(v graph.NodeID) ([]graph.NodeID, []graph.EdgeID) {
	lo, hi := en.off[v], en.off[v+1]
	return en.nbr[lo:hi], en.eid[lo:hi]
}

// orient returns the endpoints of e ordered by rank: rank(u) < rank(v).
func (en *Engine) orient(e graph.EdgeID) (u, v graph.NodeID) {
	u, v = en.eu[e], en.ev[e]
	if en.key[v] < en.key[u] {
		u, v = v, u
	}
	return u, v
}

// batchCap is the emission batch size: triangles are written into a
// per-range buffer of this many entries (6 KiB, L1-resident) and handed to
// the consumer a batch at a time, so the per-triangle path makes no indirect
// call of the engine's own.
const batchCap = 256

// batcher is the one emitter every enumeration shares: the intersection
// kernels push matches into buf and each full batch goes to sink.
type batcher struct {
	buf  []Triangle
	n    int
	sink func(batch []Triangle)
}

func (b *batcher) push(t Triangle) {
	b.buf[b.n] = t
	b.n++
	if b.n == len(b.buf) {
		b.flush()
	}
}

// flush stays out of line so that push fits the inlining budget.
//
//go:noinline
func (b *batcher) flush() {
	if b.n > 0 {
		b.sink(b.buf[:b.n])
		b.n = 0
	}
}

// ForEachBatch enumerates every triangle in batches. newSink is called once
// per work range, on the goroutine that enumerates it, and the sink it
// returns receives that range's triangles in reference order (ascending
// rank-lowest EdgeID, then ascending third-vertex ID — identical to
// ReferenceForEach in the test-only internal/oracle), so per-range consumer
// state needs no synchronization. A batch is only valid during the call:
// the buffer is reused. With an effective worker count of 1 there is one
// range and the whole enumeration is in reference order; with more workers
// ranges run concurrently.
func (en *Engine) ForEachBatch(newSink func() func(batch []Triangle)) {
	parallel.ForBalanced(en.g.M(), en.workers, en.work, func(lo, hi int) {
		en.emitRange(lo, hi, batchCap, newSink())
	})
}

// ForEach calls fn once for every triangle in the graph, in the order and
// under the concurrency of ForEachBatch: with more than one worker fn is
// invoked concurrently and must be safe for that.
func (en *Engine) ForEach(fn func(t Triangle)) {
	sink := func(batch []Triangle) {
		for _, t := range batch {
			fn(t)
		}
	}
	en.ForEachBatch(func() func([]Triangle) { return sink })
}

// emitRange hands sink every triangle whose rank-lowest edge lies in
// [lo, hi), in reference order, in batches of up to capacity.
func (en *Engine) emitRange(lo, hi, capacity int, sink func(batch []Triangle)) {
	b := batcher{buf: make([]Triangle, capacity), sink: sink}
	for e := lo; e < hi; e++ {
		ce := graph.EdgeID(e)
		cu, cv := en.orient(ce)
		un, ue := en.forward(cu)
		vn, ve := en.forward(cv)
		intersectEmit(un, ue, vn, ve, cu, cv, ce, &b)
	}
	b.flush()
}

// countRange counts the triangles whose rank-lowest edge lies in [lo, hi)
// without materializing them.
func (en *Engine) countRange(lo, hi int) int64 {
	var c int64
	for e := lo; e < hi; e++ {
		u, v := en.orient(graph.EdgeID(e))
		c += intersectCount(en.nbr[en.off[u]:en.off[u+1]], en.nbr[en.off[v]:en.off[v+1]])
	}
	return c
}

// Count returns the number of triangles.
func (en *Engine) Count() int64 { return en.CountPart(0, 1) }

// CountPart counts the triangles whose rank-lowest edge lies in part i of
// the canonical edge order cut into `of` slices of equal intersection work
// — the same cut the engine's own workers claim grains by, so a part is a
// fair share of Count's time, not of its edges. The slices tile the edge
// order: for every of >= 1 the parts sum to Count(), which is how a cluster
// spreads one exact count over shards that each hold the whole graph.
// Per-worker counters replace the per-triangle atomic of the reference
// path; integer addition commutes, so the result is independent of the
// worker count.
func (en *Engine) CountPart(i, of int) int64 {
	lo, hi := parallel.BalancedCut(en.work, i, of), parallel.BalancedCut(en.work, i+1, of)
	nw := parallel.Resolve(en.workers, hi-lo)
	if nw == 1 {
		return en.countRange(lo, hi)
	}
	const pad = 8 // one cache line per counter
	acc := make([]int64, nw*pad)
	parallel.ForBalancedWorker(hi-lo, en.workers, en.work[lo:hi+1], func(w, a, b int) {
		acc[w*pad] += en.countRange(lo+a, lo+b)
	})
	var total int64
	for w := 0; w < nw; w++ {
		total += acc[w*pad]
	}
	return total
}

// maxAccumulators caps the per-worker dense arrays of PerVertex/PerEdge:
// each costs a full n- or m-length int64 array, so these two paths cap
// their enumeration parallelism rather than letting a high-core default
// worker count allocate GOMAXPROCS full-size copies. Count is unaffected
// (one padded counter per worker).
const maxAccumulators = 8

// accWorkers resolves the worker count for the accumulator-array paths.
func (en *Engine) accWorkers(m int) int {
	w := en.workers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	if w > maxAccumulators {
		w = maxAccumulators
	}
	return parallel.Resolve(w, m)
}

// accumulate returns size per-element triangle counts, add tallying one
// batch. Each worker tallies into its own array (worker 0 into the result
// itself) and the arrays are summed at the end — no atomics.
func (en *Engine) accumulate(size int, add func(acc []int64, batch []Triangle)) []int64 {
	m := en.g.M()
	counts := make([]int64, size)
	per := make([][]int64, en.accWorkers(m))
	per[0] = counts
	for w := 1; w < len(per); w++ {
		per[w] = make([]int64, size)
	}
	parallel.ForBalancedWorker(m, len(per), en.work, func(w, lo, hi int) {
		acc := per[w]
		en.emitRange(lo, hi, batchCap, func(batch []Triangle) { add(acc, batch) })
	})
	if len(per) > 1 {
		parallel.ForChunks(size, en.workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for _, acc := range per[1:] {
					counts[i] += acc[i]
				}
			}
		})
	}
	return counts
}

// PerVertex returns counts[v] = number of triangles containing vertex v.
func (en *Engine) PerVertex() []int64 {
	return en.accumulate(en.g.N(), func(acc []int64, batch []Triangle) {
		for i := range batch {
			for _, v := range batch[i].V {
				acc[v]++
			}
		}
	})
}

// PerEdge returns counts[e] = number of triangles containing canonical edge
// e. The CT variant of Triangle Reduction removes edges that belong to the
// fewest triangles first, which needs exactly this array.
func (en *Engine) PerEdge() []int64 {
	return en.accumulate(en.g.M(), func(acc []int64, batch []Triangle) {
		for i := range batch {
			for _, e := range batch[i].E {
				acc[e]++
			}
		}
	})
}

// List materializes all triangles in the reference order regardless of the
// engine's worker count. Intended for tests and small graphs.
func (en *Engine) List() []Triangle {
	var out []Triangle
	en.emitRange(0, en.g.M(), batchCap, func(batch []Triangle) { out = append(out, batch...) })
	return out
}

// gallopCutoff is the length ratio beyond which the intersection switches
// from linear merge to galloping search over the longer list. Merge costs
// |A|+|B|; galloping costs ~|B| log |A| — the crossover sits near |A|/|B| =
// log |A|, and 16 keeps the branchy gallop out of balanced cases.
const gallopCutoff = 16

// gallopTo returns the first index >= from with a[idx] >= w (or len(a)):
// exponential probe doubling from the cursor, then binary search inside the
// bracketed window — O(log d) per lookup where d is the cursor advance, so
// a full pass over a skewed pair costs O(|short| log |long|).
func gallopTo(a []graph.NodeID, from int, w graph.NodeID) int {
	lo, step := from, 1
	for lo+step < len(a) && a[lo+step] < w {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(a) {
		hi = len(a)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectEmit pushes one triangle {u, v, w} per common element w of the
// ID-sorted forward lists (an, ae) of u and (bn, be) of v, in increasing ID
// order; e is the edge {u, v}. The kernel is adaptive: linear merge for
// balanced lengths, galloping over the longer list when skewed past
// gallopCutoff.
func intersectEmit(an []graph.NodeID, ae []graph.EdgeID, bn []graph.NodeID, be []graph.EdgeID,
	u, v graph.NodeID, e graph.EdgeID, out *batcher) {
	switch {
	case len(an) == 0 || len(bn) == 0:
	case len(an) > gallopCutoff*len(bn):
		j := 0
		for i, w := range bn {
			j = gallopTo(an, j, w)
			if j == len(an) {
				return
			}
			if an[j] == w {
				out.push(Triangle{V: [3]graph.NodeID{u, v, w}, E: [3]graph.EdgeID{e, ae[j], be[i]}})
				j++
			}
		}
	case len(bn) > gallopCutoff*len(an):
		j := 0
		for i, w := range an {
			j = gallopTo(bn, j, w)
			if j == len(bn) {
				return
			}
			if bn[j] == w {
				out.push(Triangle{V: [3]graph.NodeID{u, v, w}, E: [3]graph.EdgeID{e, ae[i], be[j]}})
				j++
			}
		}
	default:
		i, j := 0, 0
		for i < len(an) && j < len(bn) {
			x, y := an[i], bn[j]
			if x == y {
				out.push(Triangle{V: [3]graph.NodeID{u, v, x}, E: [3]graph.EdgeID{e, ae[i], be[j]}})
			}
			i += b2i(x <= y)
			j += b2i(x >= y)
		}
	}
}

// intersectCount is intersectEmit reduced to the match count — the Count
// hot path, free of any per-match call. Its balanced arm advances both
// cursors by comparison results instead of branching on them: which list is
// ahead is a coin flip the branch predictor loses.
func intersectCount(an, bn []graph.NodeID) int64 {
	var c int64
	switch {
	case len(an) == 0 || len(bn) == 0:
	case len(an) > gallopCutoff*len(bn):
		j := 0
		for _, w := range bn {
			j = gallopTo(an, j, w)
			if j == len(an) {
				return c
			}
			if an[j] == w {
				c++
				j++
			}
		}
	case len(bn) > gallopCutoff*len(an):
		j := 0
		for _, w := range an {
			j = gallopTo(bn, j, w)
			if j == len(bn) {
				return c
			}
			if bn[j] == w {
				c++
				j++
			}
		}
	default:
		i, j := 0, 0
		for i < len(an) && j < len(bn) {
			x, y := an[i], bn[j]
			c += int64(b2i(x == y))
			i += b2i(x <= y)
			j += b2i(x >= y)
		}
	}
	return c
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
