package triangles

import (
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Engine is the triangle-emission substrate: a Forward of plain lists, no
// hub rows (see Forward for the orientation invariant), plus what emission
// reads — the canonical edge columns, the EdgeID of every forward-list
// entry and a per-edge schedule — built once and shared by every
// enumeration (ForEachBatch, ForEach, PerVertex, PerEdge, List) and by
// core.RunTriangleKernel; Count runs on the embedded Forward. Construction
// is O(n + m) on top of the input and bit-identical for any worker count.
//
// Emission goes edge by edge: a triangle with rank(a) < rank(b) < rank(c)
// is found once, in F(a) ∩ F(b) from its rank-lowest edge {a, b}. Canonical
// edges are grouped by their lower-ID endpoint and forward lists are sorted
// by ID, not by rank, so the sequential enumeration emits in exactly the
// reference order (ascending lowest edge, then ascending third vertex),
// which keeps Edge-Once kernels bit-identical to the pre-engine
// implementation.
//
// Stamp invariant of emission: inside a range, stamp[w] = i+1 exactly when
// w is the i-th entry of F(a) for the lower-ID endpoint a of the edge being
// scanned, and 0 otherwise; between ranges the array is all-zero. A range
// stamps on entry and un-stamps on exit by walking the list. The array is
// per-worker scratch of the enumerating call, so the engine stays
// immutable, safe for concurrent enumerations, and its resident arena
// (SizeBytes) has no field for it.
type Engine struct {
	Forward
	g        graph.AdjacencyEdges
	key      []uint64       // rank key per vertex: degree<<32 | ID
	eu, ev   []graph.NodeID // canonical edge columns, borrowed from a raw CSR or decoded
	eid      []graph.EdgeID // the canonical EdgeID of every entry of nbr
	edgeWork []int64        // edgeWork[e] = emission cost of edges [0, e)
	ownsCols bool           // eu/ev were decoded by the build, so SizeBytes charges them
}

// NewEngine builds the enumeration substrate for any canonical-edge view —
// *graph.Graph or succinct.PackedGraph alike, without materializing a raw
// CSR. For a fixed logical graph the built structure and every result are
// bit-identical across representations and worker counts. workers <= 0 uses
// all CPUs; the same value drives every subsequent enumeration on the
// engine. Directed graphs are not supported: callers must symmetrize first.
func NewEngine(a graph.AdjacencyEdges, workers int) *Engine {
	if a.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	n, m := a.N(), a.M()
	en := &Engine{Forward: Forward{workers: workers}, g: a, key: rankKeys(a, workers)}

	en.eu, en.ev, en.ownsCols = graph.EdgeColumnsOf(a, workers)

	// Edge-centric forward fill: stably scatter every canonical edge to its
	// lower-rank endpoint. Edges arrive in canonical (u, v) order, so the
	// arcs landing at vertex v are its lower-ID neighbors ascending followed
	// by its higher-ID neighbors ascending: the forward sets NewForward
	// splits into lists and hub rows, as plain lists, plus eid.
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

	// Edge e costs |F(ev[e])|+1 for the scan, plus 2|F(eu[e])| on the first
	// edge of a run sharing eu[e], whose list is stamped and erased once.
	en.edgeWork = make([]int64, m+1)
	parallel.ForBlocks(m, parallel.Blocks(m, 0, workers), workers, func(_, lo, hi int) {
		for e := lo; e < hi; e++ {
			u, v := en.eu[e], en.ev[e]
			en.edgeWork[e] = en.off[v+1] - en.off[v] + 1
			if e == 0 || u != en.eu[e-1] {
				en.edgeWork[e] += 2 * (en.off[u+1] - en.off[u])
			}
		}
	})
	parallel.ExclusiveScan(en.edgeWork, workers)
	en.weigh()
	return en
}

// NewEngineOn forwards to NewEngine for benchmark/ (frozen); the next benchmark PR deletes it.
func NewEngineOn(a graph.AdjacencyEdges, workers int) *Engine { return NewEngine(a, workers) }

// SizeBytes estimates the heap bytes the engine's arena holds: the
// Forward's, the rank keys, eid, the emission schedule, and the edge columns
// when the build decoded its own copy (a raw CSR lends them zero-copy).
func (en *Engine) SizeBytes() int64 {
	b := en.Forward.SizeBytes() + int64(len(en.key))*8 + int64(len(en.edgeWork))*8 + int64(len(en.eid))*4
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

// marks is one worker's emission scratch: stamp[w] = i+1 while w is the
// i-th entry of the forward list currently in list, 0 for every other vertex.
// It belongs to the enumeration call that allocated it — never to the
// engine's arena — and is cleared only by walking list again, so moving
// between lists costs their lengths, not n.
type marks struct {
	stamp []int32
	list  []graph.NodeID
}

func (en *Engine) newMarks() *marks { return &marks{stamp: make([]int32, len(en.key))} }

// set un-stamps the current list and stamps list; set(nil) leaves the array
// all-zero, which is how every range hands it to the next.
func (mk *marks) set(list []graph.NodeID) {
	for _, w := range mk.list {
		mk.stamp[w] = 0
	}
	mk.list = list
	for i, w := range list {
		mk.stamp[w] = int32(i + 1)
	}
}

// enter stamps F(eu[e]) if edge e opens a run of canonical edges sharing that
// lower-ID endpoint, or opens the range itself: a range never relies on a
// predecessor's stamps, so any cut of the edge order is a valid range.
func (en *Engine) enter(mk *marks, e, lo int) {
	if a := en.eu[e]; e == lo || a != en.eu[e-1] {
		mk.set(en.nbr[en.off[a]:en.off[a+1]])
	}
}

// batchCap is the emission batch size: triangles are written into a
// per-worker buffer of this many entries (6 KiB, L1-resident) and handed to
// the consumer a batch at a time, so the per-triangle path makes no call.
const batchCap = 256

// emitter is one worker's emission scratch: its marks and the batch buffer
// every range it claims fills and hands to that range's sink.
type emitter struct {
	*marks
	buf []Triangle
}

func (en *Engine) newEmitter(capacity int) *emitter {
	return &emitter{marks: en.newMarks(), buf: make([]Triangle, capacity)}
}

// emitRange hands sink every triangle whose rank-lowest edge lies in
// [lo, hi), in batches of up to len(out.buf) and in reference order —
// ascending canonical edge, then ascending third vertex, because F(ev[e]) is
// scanned in its ID order. A match w at position j of F(b) stamped s closes
// the triangle with edges eid[off[a]+s-1] = {a, w} and eid[off[b]+j] =
// {b, w}; V and E are written in rank order.
func (en *Engine) emitRange(lo, hi int, out *emitter, sink func(batch []Triangle)) {
	stamp, buf, n := out.stamp, out.buf, 0
	for e := lo; e < hi; e++ {
		en.enter(out.marks, e, lo)
		a, b := en.eu[e], en.ev[e]
		u, v, x := a, b, 0 // x: which of E[1], E[2] is the edge out of F(a)
		if en.key[b] < en.key[a] {
			u, v, x = b, a, 1
		}
		blo, bhi := en.off[b], en.off[b+1]
		ae, be := en.eid[en.off[a]:en.off[a+1]], en.eid[blo:bhi]
		for j, w := range en.nbr[blo:bhi] {
			s := stamp[w]
			if s == 0 {
				continue
			}
			t := &buf[n]
			t.V = [3]graph.NodeID{u, v, w}
			t.E[0], t.E[1+x], t.E[2-x] = graph.EdgeID(e), ae[s-1], be[j]
			if n++; n == len(buf) {
				sink(buf)
				n = 0
			}
		}
	}
	out.set(nil)
	if n > 0 {
		sink(buf[:n])
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
	en.forEachRange(en.workers, func(int) func([]Triangle) { return newSink() })
}

// forEachRange is the one emission loop: every work range is enumerated by
// the worker that claims it, into that worker's emitter (allocated on its
// first claim) and out to the sink newSink(worker) returns for the range.
func (en *Engine) forEachRange(workers int, newSink func(worker int) func(batch []Triangle)) {
	m := en.g.M()
	per := make([]*emitter, parallel.Resolve(workers, m))
	parallel.ForBalancedWorker(m, workers, en.edgeWork, func(w, lo, hi int) {
		if per[w] == nil {
			per[w] = en.newEmitter(batchCap)
		}
		en.emitRange(lo, hi, per[w], newSink(w))
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
	counts := make([]int64, size)
	per := make([][]int64, en.accWorkers(en.g.M()))
	sinks := make([]func([]Triangle), len(per))
	for w := range per {
		acc := counts
		if w > 0 {
			acc = make([]int64, size)
		}
		per[w], sinks[w] = acc, func(batch []Triangle) { add(acc, batch) }
	}
	en.forEachRange(len(per), func(w int) func([]Triangle) { return sinks[w] })
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
	sink := func(batch []Triangle) { out = append(out, batch...) }
	en.forEachRange(1, func(int) func([]Triangle) { return sink })
	return out
}
