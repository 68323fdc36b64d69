// Package traverse implements graph traversals: parallel level-synchronous
// BFS, Dijkstra and delta-stepping SSSP, and diameter/average-path-length
// estimators.
//
// These are the stage-2 algorithms of the Slim Graph pipeline — the paper
// runs BFS (Graph500-style, with predecessor output) and SSSP over
// compressed graphs and compares the outcomes against the originals.
package traverse

import (
	"container/heap"
	"math"
	"sync/atomic"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// BFSResult holds the traversal tree and level of every vertex.
// Parent[root] == root; unreachable vertices have Parent == -1 and
// Dist == -1. Parent is the Graph500 "predecessor" output the paper's BFS
// metric is defined over.
type BFSResult struct {
	Parent []graph.NodeID
	Dist   []int32
}

// Reached returns the number of vertices reachable from the root (including
// the root itself).
func (r *BFSResult) Reached() int {
	c := 0
	for _, d := range r.Dist {
		if d >= 0 {
			c++
		}
	}
	return c
}

// Ecc returns the eccentricity of the root within its component: the
// maximum finite distance.
func (r *BFSResult) Ecc() int32 {
	var max int32
	for _, d := range r.Dist {
		if d > max {
			max = d
		}
	}
	return max
}

// The direction switch of BFS is Beamer's: a level goes bottom-up when
// bfsAlpha times its frontier's degree sum exceeds the degree sum of the
// unvisited vertices, and the search returns top-down once the frontier holds
// fewer than n/bfsBeta vertices. While every level so far went top-down, the
// unvisited sum is a running count: the arc count less each frontier's sum,
// which the switch takes anyway. Only after a bottom-up phase, whose
// discoveries no frontier summed, is it swept from the degrees.
const (
	bfsAlpha = 15
	bfsBeta  = 18
)

// BFS runs a level-synchronous, direction-optimising parallel breadth-first
// search from root over any graph.Adjacency, so a PackedGraph is traversed in
// place, its lists decoded on the fly. A top-down level expands the frontier
// through ForNeighbors and claims vertices with CAS on the parent array; a
// bottom-up level asks every unvisited vertex for its smallest in-neighbor in
// the frontier (FirstInNeighborIn), over vertex ranges owned by one worker
// each. Which direction a level takes follows from N, Degree and the frontier
// sizes alone.
//
// What is deterministic: Dist, always — every representation, every worker
// count. Parent at one worker, identically on every representation of a
// graph. With workers > 1 the parents a bottom-up level assigns (the
// smallest-ID frontier neighbor) still are; among the same-level candidates
// of a top-down level the CAS race picks. workers <= 0 uses all CPUs.
func BFS(g graph.Adjacency, root graph.NodeID, workers int) *BFSResult {
	n := g.N()
	parent := make([]graph.NodeID, n)
	dist := make([]int32, n)
	for i := range parent {
		parent[i] = -1
		dist[i] = -1
	}
	parent[root] = root
	dist[root] = 0
	frontier := []graph.NodeID{root}
	level := int32(0)
	// All per-level state is hoisted so a traversal allocates its scratch
	// once: per-worker visit closures (created up front, each owning a state
	// cell rebound per vertex so ForNeighbors stays allocation-free) and
	// per-worker next-frontier slices whose capacity survives across levels.
	maxW := parallel.Resolve(workers, n)
	states := make([]struct {
		u     graph.NodeID
		local []graph.NodeID
		found int      // discoveries of one bottom-up level
		_     [24]byte // pad cells to a cache line: u/local are written per vertex
	}, maxW)
	visits := make([]func(graph.NodeID), maxW)
	for w := range visits {
		st := &states[w]
		visits[w] = func(v graph.NodeID) {
			// Test, then CAS: most arcs lead to a vertex already claimed, and
			// only a discovery pays for the locked instruction.
			if atomic.LoadInt32(&parent[v]) == -1 && atomic.CompareAndSwapInt32(&parent[v], -1, st.u) {
				dist[v] = level
				st.local = append(st.local, v)
			}
		}
	}
	topDown := func(w, lo, hi int) {
		st := &states[w]
		visit := visits[w]
		for i := lo; i < hi; i++ {
			st.u = frontier[i]
			g.ForNeighbors(st.u, visit)
		}
	}
	// A bottom-up level reads its frontier as a bit per vertex and writes the
	// next one the same way. Its chunks are ranges of 64-vertex words: a
	// worker owns the words of next it sets and the parent entries behind
	// them, so the level needs no atomics and its outcome no luck.
	words := (n + 63) / 64
	var front, next *bitset.Bits
	bottomUp := func(w, lo, hi int) {
		st := &states[w]
		for v, end := graph.NodeID(lo*64), graph.NodeID(min(hi*64, n)); v < end; v++ {
			if parent[v] != -1 {
				continue
			}
			if p := g.FirstInNeighborIn(v, front); p >= 0 {
				parent[v] = p
				dist[v] = level
				next.Set(int(v))
				st.found++
			}
		}
	}
	up := false
	unvisited := int64(g.NumArcs()) // the degree sum no level has reached; -1 once unknown
	for size := 1; size > 0; {
		level++
		if !up && bottomUpPays(g, frontier, parent, &unvisited) {
			up = true
			unvisited = -1
			if front == nil {
				front, next = bitset.New(n), bitset.New(n)
			}
			front.Reset()
			for _, u := range frontier {
				front.Set(int(u))
			}
		} else if up && size < n/bfsBeta {
			up = false
			frontier = frontier[:0]
			front.ForEach(func(v int) { frontier = append(frontier, graph.NodeID(v)) })
		}
		if up {
			nw := parallel.Resolve(workers, words)
			next.Reset()
			parallel.ForWorker(words, nw, bottomUp)
			size = 0
			for w := 0; w < nw; w++ {
				size += states[w].found
				states[w].found = 0
			}
			front, next = next, front
		} else {
			nw := parallel.Resolve(workers, len(frontier))
			for w := 0; w < nw; w++ {
				states[w].local = states[w].local[:0]
			}
			parallel.ForWorker(len(frontier), nw, topDown)
			frontier = frontier[:0]
			for w := 0; w < nw; w++ {
				frontier = append(frontier, states[w].local...)
			}
			size = len(frontier)
		}
	}
	return &BFSResult{Parent: parent, Dist: dist}
}

// bottomUpPays applies the entry half of the direction switch to a top-down
// frontier. A bottom-up level reads all n parent entries, so a frontier with
// fewer than n arcs to follow is expanded without a further question — a
// path, a grid or a star never sums a degree beyond its frontier's. The
// frontier's sum comes off *unvisited, the running degree sum of the
// vertices no level has reached (held at 0: a damaged payload's degrees
// need not add up to its arc count); when that is unknown (-1, after a
// bottom-up phase) it is swept behind the gate, only until it settles the
// comparison.
func bottomUpPays(g graph.Adjacency, frontier, parent []graph.NodeID, unvisited *int64) bool {
	var arcs int64
	for _, u := range frontier {
		arcs += int64(g.Degree(u))
	}
	if *unvisited >= 0 {
		*unvisited = max(*unvisited-arcs, 0)
	}
	if arcs < int64(len(parent)) {
		return false
	}
	if *unvisited >= 0 {
		return *unvisited < bfsAlpha*arcs
	}
	var sum int64
	for v := 0; v < len(parent) && sum < bfsAlpha*arcs; v++ {
		if parent[v] == -1 {
			sum += int64(g.Degree(graph.NodeID(v)))
		}
	}
	return sum < bfsAlpha*arcs
}

// BFSOn forwards to BFS for benchmark/ (frozen); the next benchmark PR deletes it.
func BFSOn(g graph.Adjacency, root graph.NodeID, workers int) *BFSResult {
	return BFS(g, root, workers)
}

// Inf is the distance assigned to unreachable vertices by SSSP routines.
var Inf = math.Inf(1)

// Dijkstra computes single-source shortest path distances with a binary
// heap. Edge weights must be non-negative; unweighted graphs use weight 1.
// The returned parent array mirrors BFS (-1 when unreachable).
func Dijkstra(g *graph.Graph, root graph.NodeID) (dist []float64, parent []graph.NodeID) {
	n := g.N()
	dist = make([]float64, n)
	parent = make([]graph.NodeID, n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[root] = 0
	parent[root] = root
	pq := &distHeap{items: []distItem{{v: root, d: 0}}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(distItem)
		if it.d > dist[it.v] {
			continue // stale entry
		}
		nbrs, eids := g.NeighborEdges(it.v)
		for i, v := range nbrs {
			nd := it.d + g.EdgeWeight(eids[i])
			if nd < dist[v] {
				dist[v] = nd
				parent[v] = it.v
				heap.Push(pq, distItem{v: v, d: nd})
			}
		}
	}
	return dist, parent
}

// DeltaStepping computes SSSP distances with bucketed relaxation (Meyer &
// Sanders), the algorithm GAPBS uses. delta <= 0 picks a heuristic bucket
// width (max weight / average degree). Relaxations within a bucket run in
// parallel; distances are exact for non-negative weights.
func DeltaStepping(g *graph.Graph, root graph.NodeID, delta float64, workers int) []float64 {
	n := g.N()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	dist[root] = 0
	if delta <= 0 {
		maxW := 1.0
		for e := 0; e < g.M(); e++ {
			if w := g.EdgeWeight(graph.EdgeID(e)); w > maxW {
				maxW = w
			}
		}
		avg := g.AvgDegree()
		if avg < 1 {
			avg = 1
		}
		delta = maxW / avg
		if delta <= 0 {
			delta = 1
		}
	}
	distBits := make([]uint64, n)
	distBits[root] = math.Float64bits(0)
	for i := range distBits {
		if i != int(root) {
			distBits[i] = math.Float64bits(Inf)
		}
	}
	load := func(v graph.NodeID) float64 {
		return math.Float64frombits(atomic.LoadUint64(&distBits[v]))
	}
	// relax attempts to lower v's distance to nd; returns true if it won.
	relax := func(v graph.NodeID, nd float64) bool {
		for {
			old := atomic.LoadUint64(&distBits[v])
			if math.Float64frombits(old) <= nd {
				return false
			}
			if atomic.CompareAndSwapUint64(&distBits[v], old, math.Float64bits(nd)) {
				return true
			}
		}
	}
	bucketOf := func(d float64) int { return int(d / delta) }
	buckets := map[int][]graph.NodeID{0: {root}}
	for len(buckets) > 0 {
		// Process the lowest-indexed non-empty bucket.
		cur := -1
		for b := range buckets {
			if cur < 0 || b < cur {
				cur = b
			}
		}
		frontier := buckets[cur]
		delete(buckets, cur)
		for len(frontier) > 0 {
			type relaxed struct {
				v graph.NodeID
				b int
			}
			nw := parallel.Resolve(workers, len(frontier))
			per := make([][]relaxed, nw)
			parallel.ForWorker(len(frontier), nw, func(w, lo, hi int) {
				local := per[w]
				for i := lo; i < hi; i++ {
					u := frontier[i]
					du := load(u)
					if bucketOf(du) < cur {
						continue // settled in an earlier bucket
					}
					nbrs, eids := g.NeighborEdges(u)
					for j, v := range nbrs {
						nd := du + g.EdgeWeight(eids[j])
						if relax(v, nd) {
							local = append(local, relaxed{v: v, b: bucketOf(nd)})
						}
					}
				}
				per[w] = local
			})
			frontier = frontier[:0]
			for _, part := range per {
				for _, r := range part {
					if r.b == cur {
						frontier = append(frontier, r.v)
					} else {
						buckets[r.b] = append(buckets[r.b], r.v)
					}
				}
			}
		}
	}
	for i := range dist {
		dist[i] = math.Float64frombits(distBits[i])
	}
	return dist
}

// DoubleSweepDiameter returns a lower bound on the (unweighted) diameter:
// run BFS from start, then BFS from the farthest vertex found. On trees the
// bound is exact; on general graphs it is a standard tight heuristic.
func DoubleSweepDiameter(g graph.Adjacency, start graph.NodeID, workers int) int32 {
	first := BFS(g, start, workers)
	far := start
	var best int32
	for v, d := range first.Dist {
		if d > best {
			best = d
			far = graph.NodeID(v)
		}
	}
	second := BFS(g, far, workers)
	return second.Ecc()
}

// AveragePathLength estimates the mean finite shortest-path length by
// running BFS from the given sample roots and averaging finite distances.
func AveragePathLength(g graph.Adjacency, roots []graph.NodeID, workers int) float64 {
	var sum float64
	var count int64
	for _, r := range roots {
		res := BFS(g, r, workers)
		for v, d := range res.Dist {
			if d > 0 && graph.NodeID(v) != r {
				sum += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

type distItem struct {
	v graph.NodeID
	d float64
}

type distHeap struct{ items []distItem }

func (h *distHeap) Len() int           { return len(h.items) }
func (h *distHeap) Less(i, j int) bool { return h.items[i].d < h.items[j].d }
func (h *distHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *distHeap) Push(x interface{}) { h.items = append(h.items, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
