package triangles

import (
	"fmt"
	"math/bits"
	"slices"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Forward is the count-only triangle substrate: the rank-oriented forward
// CSR, split into hub words and lists, and a per-vertex work prefix, nothing
// else.
//
// Orientation invariant: vertices are ranked by the key (degree, ID), and the
// forward set F(v) holds exactly the neighbors w with rank(w) > rank(v).
// |F(v)| = O(√m) for every v, which bounds every scan and yields the
// O(m^{3/2}) total of Table 2. F(v) is stored in two parts. The hubs are the
// top H ranked vertices (see chooseHubs); F(v)'s hubs are the set bits of
// v's mask row, `words` = H/64 uint64, bit i standing for hub[i], the hubs
// in ascending rank. The rest of F(v) is its list, in ascending ID order.
// Every vertex ranked above a hub is a hub, so a hub's list is empty and its
// row holds only bits above its own. With H = 0 there are no rows and the
// lists are all of F. The structure is identical for any worker count and
// for every representation of the same logical graph.
//
// Byte rule: H is chosen from the degrees alone so that the rows and the hub
// table take no more bytes than a lower bound on the list entries they
// replace, so SizeBytes never exceeds the hub-free 16(n+1) + 4m.
//
// Counting is the forward algorithm (Schank & Wagner): for each vertex a,
// stamp a's list, scan b's list against the stamps for every b in it, and
// erase the stamps by walking a's list again; then add the popcount of a's
// row AND the row of every b in a's list and of every hub in a's row. A
// triangle with rank(a) < rank(b) < rank(c) is counted once, at a: by a
// stamp if c is no hub, by a row AND if it is (b is then in a's list if it
// is no hub, in a's row if it is).
// Stamp invariant: stamp[w] = 1 exactly for the w in a's list while a is
// counted, and the array is all-zero between vertices, so a range never
// inherits stamps and any cut of the vertex order is valid. The array — one
// byte per vertex, L1-resident where emission's int32 marks are not — is
// scratch of the counting call, not in SizeBytes.
type Forward struct {
	workers int
	words   int            // mask words per vertex, H/64
	off     []int64        // n+1 offsets of the lists in nbr
	nbr     []graph.NodeID // every vertex's list, back to back
	mask    []uint64       // n rows of words: bit i of row v is set iff hub[i] ∈ F(v)
	hub     []graph.NodeID // the H hubs in ascending rank
	work    []int64        // work[v] = counting cost of vertices [0, v), see weigh
}

// hubCode is a hub's rank key during NewForward's scan: hubCode | i for
// hub[i] ranks it above every degree<<32 | ID key and keeps the hubs' order,
// so one compare ranks an arc and tells a row bit from a list entry.
const hubCode = 1 << 63

// NewForward builds the count-only substrate of a in one ScanInLists pass
// that keeps each neighbor ranked above its vertex, in its row if it is a
// hub and in its list if not. workers <= 0 uses all CPUs; the same value
// drives every count on the result. A packed list that decodes to a neighbor
// outside [0, n), or lists and rows holding more forward arcs than a has
// edges, panic as a corrupt packed graph rather than index out of range.
// Directed graphs are not supported: callers must symmetrize first.
func NewForward(a graph.AdjacencyEdges, workers int) *Forward {
	if a.Directed() {
		panic("triangles: directed graphs are not supported; symmetrize first")
	}
	n, key := a.N(), rankKeys(a, workers)
	hub := chooseHubs(key)
	words := len(hub) / 64
	for i, h := range hub {
		key[h] = hubCode | uint64(i)
	}
	f := &Forward{workers: workers, words: words, off: make([]int64, n+1), mask: make([]uint64, n*words), hub: hub}
	blocks := parallel.Blocks(n, 0, workers)
	lists := make([][]graph.NodeID, blocks)
	hubArcs := make([]int64, blocks)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		var out []graph.NodeID
		var codes []uint64 // scratch of moveHubs
		var set int64
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
			if words > 0 && k > k0 {
				var h int
				h, codes = f.moveHubs(int(v), out[k0:k], key, codes)
				k, set = k-h, set+int64(h)
			}
			out, f.off[v] = out[:k], int64(k-k0)
		})
		lists[b], hubArcs[b] = out, set
	})
	arcs := parallel.ExclusiveScan(f.off, workers)
	for _, set := range hubArcs {
		arcs += set
	}
	if arcs > int64(a.M()) {
		panic(fmt.Sprintf("triangles: corrupt packed graph: %d forward arcs over %d edges", arcs, a.M()))
	}
	f.nbr = make([]graph.NodeID, f.off[n])
	parallel.ForBlocks(n, blocks, workers, func(b, lo, _ int) { copy(f.nbr[f.off[lo]:], lists[b]) })
	f.weigh()
	return f
}

// moveHubs moves the hubs out of list, v's arcs ranked above v, into v's
// row, and returns how many it moved; the rest stay at the front of list, in
// order. It compacts branch-free — a hub is as likely as not on rmat-like
// graphs — through codes, scratch grown to len(list) and returned for reuse.
func (f *Forward) moveHubs(v int, list []graph.NodeID, key, codes []uint64) (int, []uint64) {
	if cap(codes) < len(list) {
		codes = make([]uint64, len(list))
	}
	codes = codes[:len(list)]
	j, h := 0, 0
	for _, w := range list {
		kw := key[w]
		hub := int(kw >> 63)
		list[j], codes[h] = w, kw
		j, h = j+1-hub, h+hub
	}
	row := f.row(v)
	for _, kw := range codes[:h] {
		row[(kw&^hubCode)>>6] |= 1 << (kw & 63)
	}
	return h, codes
}

// rankKeys returns the rank key degree<<32 | ID of every vertex.
func rankKeys(a graph.Adjacency, workers int) []uint64 {
	key := make([]uint64, a.N())
	parallel.For(len(key), workers, func(v int) {
		key[v] = uint64(a.Degree(graph.NodeID(v)))<<32 | uint64(uint32(v))
	})
	return key
}

// maxHubs caps H: 512 hubs make a row of eight words, one cache line.
const maxHubs = 512

// chooseHubs returns the hubs in ascending rank: the top H vertices by rank
// key, for the largest H of 64, 128, …, maxHubs (and at most n) whose rows
// and hub table take no more bytes than a lower bound on the list entries
// they replace — every arc into a hub but those from a hub ranked above it:
//
//	8n·H/64 + 4H ≤ 4(Σ_{top H} deg − H(H−1)/2),
//
// or none if no H qualifies. Per hub the rule reads n/8 + 4 ≤ 4·(mean top
// degree) − 2(H−1), whose right side falls as H grows: the H that qualify
// are a prefix, and if the top degree cannot carry H = 64 none can.
func chooseHubs(key []uint64) []graph.NodeID {
	n := len(key)
	fits := func(h int, degrees uint64) bool {
		return 8*uint64(n)*uint64(h/64)+4*uint64(h)+2*uint64(h*(h-1)) <= 4*degrees
	}
	k := min(maxHubs, n/64*64)
	if k == 0 || !fits(64, 64*(slices.Max(key)>>32)) {
		return nil
	}
	// top is a min-heap of the k largest keys seen.
	top := slices.Clone(key[:k])
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(top, i)
	}
	for _, x := range key[k:] {
		if x > top[0] {
			top[0] = x
			siftDown(top, 0)
		}
	}
	slices.Sort(top)
	h, degrees := 0, uint64(0)
	for i := 1; i <= k; i++ {
		degrees += top[k-i] >> 32
		if i%64 == 0 && fits(i, degrees) {
			h = i
		}
	}
	hub := make([]graph.NodeID, h)
	for i, x := range top[k-h:] {
		hub[i] = graph.NodeID(uint32(x))
	}
	return hub
}

// siftDown restores the min-heap order of h below position i.
func siftDown(h []uint64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// weigh fills the work prefix: vertex a costs one step, stamping and erasing
// its list, |list(b)| + 1 + words for every b in it, and words + 1 for every
// hub in its row.
func (f *Forward) weigh() {
	n, words := len(f.off)-1, int64(f.words)
	f.work = make([]int64, n+1)
	parallel.ForChunks(n, f.workers, func(lo, hi int) {
		for a := lo; a < hi; a++ {
			w := 1 + (3+words)*(f.off[a+1]-f.off[a])
			for _, b := range f.nbr[f.off[a]:f.off[a+1]] {
				w += f.off[b+1] - f.off[b]
			}
			if words > 0 {
				for _, x := range f.row(a) {
					w += (words + 1) * int64(bits.OnesCount64(x))
				}
			}
			f.work[a] = w
		}
	})
	parallel.ExclusiveScan(f.work, f.workers)
}

// row returns v's mask row.
func (f *Forward) row(v int) []uint64 { return f.mask[v*f.words : (v+1)*f.words] }

// shared counts the hubs two rows of equal length both hold.
func shared(x, y []uint64) (c int64) {
	y = y[:len(x)]
	for i := range x {
		c += int64(bits.OnesCount64(x[i] & y[i]))
	}
	return c
}

// SizeBytes is the heap the substrate holds: offsets, lists, rows, hub table
// and work prefix, at most 16(n+1) + 4m bytes (the byte rule). A catalog
// charges it to its memory budget.
func (f *Forward) SizeBytes() int64 {
	return int64(len(f.off))*8 + int64(len(f.nbr))*4 + int64(len(f.mask))*8 + int64(len(f.hub))*4 + int64(len(f.work))*8
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
		if f.words == 0 {
			continue
		}
		ra := f.row(a)
		for _, b := range fa {
			c += shared(ra, f.row(int(b)))
		}
		for i, x := range ra {
			for ; x != 0; x &= x - 1 {
				h := int(f.hub[i<<6|bits.TrailingZeros64(x)])
				c += shared(ra[i:], f.row(h)[i:]) // h's row holds no hub ranked below h
			}
		}
	}
	return c
}

// Count returns the number of triangles. The workers claim grains of the
// vertex order cut by counting work; each adds into its own padded counter,
// against its own stamps. Integer addition commutes, so the result is
// independent of the worker count.
func (f *Forward) Count() int64 {
	n := len(f.off) - 1
	nw := parallel.Resolve(f.workers, n)
	const pad = 8 // one cache line per counter
	acc := make([]int64, nw*pad)
	per := make([][]uint8, nw)
	parallel.ForBalancedWorker(n, f.workers, f.work, func(w, lo, hi int) {
		if per[w] == nil {
			per[w] = make([]uint8, n)
		}
		acc[w*pad] += f.countRange(lo, hi, per[w])
	})
	var total int64
	for w := 0; w < nw; w++ {
		total += acc[w*pad]
	}
	return total
}
