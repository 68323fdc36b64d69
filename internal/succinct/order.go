package succinct

import (
	"fmt"
	"slices"
	"strings"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Order selects a gap-minimizing vertex relabeling (Log(Graph)-style
// locality ordering): neighbors with nearby IDs gap-encode into fewer bits
// and traverse with better cache locality. Packing never applies one — a
// PackedGraph and both snapshot forms keep the IDs of the graph they are
// given, so no permutation is ever stored. An order is a relabel of the
// graph itself (the relabel scheme: ComputeOrder, then graph.Permute), whose
// output is a renumbered graph. OrderNone keeps original IDs.
type Order uint8

const (
	// OrderNone keeps the original vertex IDs.
	OrderNone Order = iota
	// OrderDegree sorts vertices by degree, descending (ties by original
	// ID): hubs move to small IDs, so the many hub-adjacent gaps shrink.
	OrderDegree
	// OrderBFS numbers vertices in breadth-first discovery order from the
	// highest-degree vertex of each component: neighbors land in adjacent
	// ID runs.
	OrderBFS
	// OrderWindow refines the BFS order with one windowed barycenter pass:
	// inside fixed windows of the BFS numbering, vertices re-sort by the
	// mean position of their neighbors, tightening gaps the global order
	// leaves behind.
	OrderWindow
)

// orderNames is the canonical spelling of every Order, in value order.
var orderNames = [...]string{"none", "degree", "bfs", "window"}

// String returns the canonical name ("none", "degree", "bfs", "window").
func (o Order) String() string {
	if int(o) < len(orderNames) {
		return orderNames[o]
	}
	return fmt.Sprintf("order(%d)", uint8(o))
}

// ParseOrder maps a name (case-insensitive) to its Order.
func ParseOrder(s string) (Order, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	for i, n := range orderNames {
		if name == n {
			return Order(i), nil
		}
	}
	return OrderNone, fmt.Errorf("succinct: unknown order %q (%s)", s, strings.Join(orderNames[:], ", "))
}

// windowSize is the refinement window of OrderWindow: large enough to give
// the barycenter sort room, small enough that a re-sorted window cannot
// scramble the global BFS locality it starts from.
const (
	windowShift = 8
	windowSize  = 1 << windowShift
)

// ComputeOrder returns the permutation of o over g, with perm[old] = new;
// OrderNone returns nil (the identity). Every ordering is deterministic:
// the permutation depends only on (g, o), never on the worker count.
func ComputeOrder(g *graph.Graph, o Order, workers int) []graph.NodeID {
	switch o {
	case OrderNone:
		return nil
	case OrderDegree:
		return degreeOrder(g, workers)
	case OrderBFS:
		return bfsOrder(g, workers)
	case OrderWindow:
		return windowOrder(g, workers)
	default:
		panic(fmt.Sprintf("succinct: unknown order %d", o))
	}
}

// degreeOrder ranks vertices by (degree descending, ID ascending) with a
// stable counting scatter — no comparison sort.
func degreeOrder(g *graph.Graph, workers int) []graph.NodeID {
	n := g.N()
	maxDeg := g.MaxDegree()
	perm := make([]graph.NodeID, n)
	parallel.CountingScatter(n, maxDeg+1, workers,
		func(v int) int { return maxDeg - g.Degree(graph.NodeID(v)) },
		func(v int, pos int64) { perm[v] = graph.NodeID(pos) })
	return perm
}

// bfsOrder numbers vertices in FIFO breadth-first discovery order. Roots
// are tried in degree order (hubs first), so every component is entered
// through its best-connected vertex; within a frontier, neighbors enqueue in
// increasing original ID. The traversal is serial — ordering happens once
// per relabel, and a deterministic frontier is worth more than parallelism.
func bfsOrder(g *graph.Graph, workers int) []graph.NodeID {
	n := g.N()
	perm := make([]graph.NodeID, n)
	for i := range perm {
		perm[i] = -1
	}
	seeds := graph.InvertPermutation(degreeOrder(g, workers), workers)
	queue := make([]graph.NodeID, 0, 1024)
	next := graph.NodeID(0)
	for _, s := range seeds {
		if perm[s] >= 0 {
			continue
		}
		perm[s] = next
		next++
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			for _, w := range g.Neighbors(queue[head]) {
				if perm[w] < 0 {
					perm[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	return perm
}

// windowOrder applies one barycenter refinement pass on top of bfsOrder:
// within each windowSize-wide slice of the base numbering, vertices re-sort
// by the mean base position of their neighbors (base position for isolated
// vertices), ties by base position. Windows are disjoint, so the pass is
// window-parallel and deterministic.
func windowOrder(g *graph.Graph, workers int) []graph.NodeID {
	n := g.N()
	base := bfsOrder(g, workers)
	inv := graph.InvertPermutation(base, workers)
	perm := make([]graph.NodeID, n)
	numWin := numBlocksFor(n, windowShift)
	parallel.ForBlocks(numWin, numWin, workers, func(k, _, _ int) {
		lo, hi := blockRange(k, windowShift, n)
		type scored struct {
			v     graph.NodeID
			pos   graph.NodeID
			score float64
		}
		win := make([]scored, hi-lo)
		for p := lo; p < hi; p++ {
			v := inv[p]
			score := float64(p)
			if d := g.Degree(v); d > 0 {
				var sum float64
				for _, w := range g.Neighbors(v) {
					sum += float64(base[w])
				}
				score = sum / float64(d)
			}
			win[p-lo] = scored{v: v, pos: graph.NodeID(p), score: score}
		}
		slices.SortFunc(win, func(a, b scored) int {
			switch {
			case a.score < b.score:
				return -1
			case a.score > b.score:
				return 1
			case a.pos < b.pos:
				return -1
			case a.pos > b.pos:
				return 1
			}
			return 0
		})
		for i, s := range win {
			perm[s.v] = graph.NodeID(lo + i)
		}
	})
	return perm
}

// GapHist is the distribution of encoded gap widths of an adjacency payload
// under a vertex permutation — the quantity a locality ordering exists to
// shrink. Bits[b] counts encoded values (per-list head deltas zig-zagged,
// then gap-1 values) whose minimal binary width is b; PayloadBytes is the
// exact byte size the out-adjacency gap stream would occupy.
type GapHist struct {
	Bits         [65]int64
	PayloadBytes int64
}

// Values returns the number of encoded adjacency values counted.
func (h *GapHist) Values() int64 {
	var t int64
	for _, c := range h.Bits {
		t += c
	}
	return t
}

// MeanBits returns the average encoded-value width.
func (h *GapHist) MeanBits() float64 {
	var t, weighted int64
	for b, c := range h.Bits {
		t += c
		weighted += int64(b) * c
	}
	if t == 0 {
		return 0
	}
	return float64(weighted) / float64(t)
}

// Quantile returns the width w such that at least q (in [0, 1]) of the
// encoded values fit in w bits.
func (h *GapHist) Quantile(q float64) int {
	total := h.Values()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var run int64
	for b, c := range h.Bits {
		run += c
		if run >= target {
			return b
		}
	}
	return len(h.Bits) - 1
}

// GapHistogram measures g's out-adjacency gap stream under perm
// (perm[old] = new; nil means the identity, anything else must be a
// bijection of [0, n)) without keeping the payload: per new-ID list, the
// widths and the byte size of what AppendList encodes.
// Deterministic for any worker count.
func GapHistogram(g *graph.Graph, perm []graph.NodeID, workers int) GapHist {
	if perm != nil {
		var err error
		if g, err = g.Permute(perm, workers); err != nil {
			panic(fmt.Sprintf("succinct: GapHistogram: %v", err))
		}
	}
	n := g.N()
	numBlocks := parallel.Blocks(n, 0, workers)
	partial := make([]GapHist, numBlocks)
	parallel.ForBlocks(n, numBlocks, workers, func(b, lo, hi int) {
		h := &partial[b]
		var list []byte
		for v := lo; v < hi; v++ {
			list = listWidths(list, graph.NodeID(v), g.Neighbors(graph.NodeID(v)), &h.Bits)
			h.PayloadBytes += int64(len(list))
		}
	})
	var out GapHist
	for b := range partial {
		for i, c := range partial[b].Bits {
			out.Bits[i] += c
		}
		out.PayloadBytes += partial[b].PayloadBytes
	}
	return out
}
