// Package ldd implements low-diameter decomposition with exponential shifts
// (Miller, Peng, Xu; MPX). It is the mapping that Slim Graph's subgraph
// kernels use to derive O(k)-spanners (§4.5.2–4.5.3): every vertex draws an
// exponential shift delta_v ~ Exp(beta) and a multi-source BFS with start
// times (delta_max - delta_v) partitions the graph into clusters whose
// radius is O(log n / beta) w.h.p. The BFS forest inside each cluster is
// the cluster's spanning tree.
package ldd

import (
	"math"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// Decomposition is the vertex->cluster mapping of §4.5.2 plus the BFS
// forest used by the spanner kernel.
type Decomposition struct {
	// Cluster[v] is the center vertex of v's cluster.
	Cluster []graph.NodeID
	// Parent[v] is v's parent in the intra-cluster BFS tree — the arc
	// (Parent[v], v) is an edge of the graph — and centers have
	// Parent[v] == v.
	Parent []graph.NodeID
	// Centers lists the cluster centers in activation order.
	Centers []graph.NodeID
}

// NumClusters returns the number of clusters.
func (d *Decomposition) NumClusters() int { return len(d.Centers) }

// ClusterIndex returns a dense relabeling: idx[v] in [0, NumClusters) for
// every vertex, consistent with Cluster.
func (d *Decomposition) ClusterIndex() []int32 {
	centerIdx := make(map[graph.NodeID]int32, len(d.Centers))
	for i, c := range d.Centers {
		centerIdx[c] = int32(i)
	}
	idx := make([]int32, len(d.Cluster))
	for v, c := range d.Cluster {
		idx[v] = centerIdx[c]
	}
	return idx
}

// Decompose runs the MPX decomposition with parameter beta > 0. Larger beta
// means earlier fragmentation: more, smaller clusters. Vertex v is captured
// by the cluster of u exactly when start(u) + dist(u, v) is the global
// minimum over centers, with start(v) = delta_max - delta_v — implemented
// exactly (continuous start times, no rounding) as a Dijkstra over unit
// edge lengths, along out-arcs (ForNeighbors), so it reads a packed or
// mapped g in place. Deterministic for a fixed seed.
func Decompose(g graph.Adjacency, beta float64, seed uint64) *Decomposition {
	if beta <= 0 {
		panic("ldd: beta must be positive")
	}
	n := g.N()
	d := &Decomposition{
		Cluster: make([]graph.NodeID, n),
		Parent:  make([]graph.NodeID, n),
	}
	for i := range d.Cluster {
		d.Cluster[i] = -1
		d.Parent[i] = -1
	}
	if n == 0 {
		return d
	}
	r := rng.New(seed)
	shift := make([]float64, n)
	maxShift := 0.0
	for v := range shift {
		shift[v] = r.ExpFloat64(beta)
		if shift[v] > maxShift {
			maxShift = shift[v]
		}
	}
	arcs := 0
	for v := 0; v < n; v++ {
		arcs += g.Degree(graph.NodeID(v))
	}
	pq := newArrivalHeap(n + arcs/2)
	for v := 0; v < n; v++ {
		pq.push(arrival{
			key: maxShift - shift[v], v: graph.NodeID(v),
			from: -1, center: graph.NodeID(v),
		})
	}
	// a is the arrival being claimed; offer pushes its unclaimed out-neighbors
	// (one closure for the whole run).
	var a arrival
	offer := func(w graph.NodeID) {
		if d.Cluster[w] < 0 {
			pq.push(arrival{key: a.key + 1, v: w, from: a.v, center: a.center})
		}
	}
	for claimed := 0; pq.len() > 0 && claimed < n; {
		a = pq.pop()
		if d.Cluster[a.v] >= 0 {
			continue
		}
		d.Cluster[a.v] = a.center
		if a.from < 0 {
			d.Parent[a.v] = a.v
			d.Centers = append(d.Centers, a.v)
		} else {
			d.Parent[a.v] = a.from
		}
		claimed++
		g.ForNeighbors(a.v, offer)
	}
	return d
}

type arrival struct {
	key    float64
	v      graph.NodeID
	from   graph.NodeID // claiming BFS parent; -1 when self-start
	center graph.NodeID
}

// arrivalHeap is a hand-rolled binary min-heap over arrivals (no
// container/heap interface boxing; this loop is the spanner's hot path).
type arrivalHeap struct{ items []arrival }

func newArrivalHeap(capacity int) *arrivalHeap {
	return &arrivalHeap{items: make([]arrival, 0, capacity)}
}

func (h *arrivalHeap) len() int { return len(h.items) }

func (h *arrivalHeap) less(i, j int) bool {
	if h.items[i].key != h.items[j].key {
		return h.items[i].key < h.items[j].key
	}
	return h.items[i].v < h.items[j].v // deterministic tie-break
}

func (h *arrivalHeap) push(a arrival) {
	h.items = append(h.items, a)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *arrivalHeap) pop() arrival {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// BetaForSpanner maps the spanner parameter k >= 1 of §4.5.3 to the MPX
// beta = ln(n)/k (Miller et al.): a vertex's probability of seeing more
// than one cluster within a hop is ~n^{-1/k}, giving O(n^{1+1/k}) spanner
// edges and cluster radius O(k) w.h.p.
func BetaForSpanner(n, k int) float64 {
	if n < 2 {
		return 1
	}
	if k < 1 {
		k = 1
	}
	return math.Log(float64(n)) / float64(k)
}
