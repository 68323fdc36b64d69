package triangles

import (
	"fmt"
	"math/bits"
	"slices"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// Forward is the count-only triangle substrate: the rank-oriented forward
// CSR, split into hub rows and lists, and a work prefix sampled per block of
// 64 vertices, nothing else.
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
// Layout: the lists lie back to back at 16 bits (nbr16) when every vertex
// ID fits, n ≤ 2¹⁶, and as graph.NodeID (nbr) otherwise; off holds their
// n+1 offsets as uint32, since forward arcs never outnumber the m < 2³¹
// edges. A vertex stores a row only if it is a hub or has a hub arc: mask
// holds those rows in vertex order, rowIdx ranks them per block of 64
// vertices — a bit per vertex and the index of the block's first row — and
// hubRow points at each hub's. work[k] is the counting cost of the vertices
// below block k, so the parts Count's workers claim start and end on block
// bounds.
//
// Byte rule: H is chosen from the degrees alone so that full rows and the
// hub table take no more bytes than a lower bound on the 32-bit list entries
// they replace, and a list entry takes at most 4 bytes, so the arrays hold
// at most 4(n+1) bytes of offsets, 24⌈n/64⌉ + 8 of row blocks and work, 4H
// of hubRow and 4m of lists, rows and hub table.
//
// Counting is the forward algorithm (Schank & Wagner): for each vertex a,
// stamp a's list, scan b's list against the stamps for every b in it, and
// erase the stamps by walking a's list again; then, if a has a row, add the
// popcount of a's row AND the row of every b in a's list that has one and
// of every hub in a's row. A triangle with rank(a) < rank(b) < rank(c) is
// counted once, at a: by a stamp if c is no hub, by a row AND if it is (b is
// then in a's list if it is no hub, in a's row if it is; a and b both have
// rows since the hub c is in F(a) and F(b)).
// Stamp invariant: stamp[w] = 1 exactly for the w in a's list while a is
// counted, and the array is all-zero between vertices, so a range never
// inherits stamps and any cut of the vertex order is valid. The array — one
// byte per vertex, L1-resident where emission's int32 marks are not — is
// scratch of the counting call, not in SizeBytes.
type Forward struct {
	workers int
	words   int            // mask words per row, H/64
	off     []uint32       // n+1 offsets of the lists
	nbr     []graph.NodeID // every vertex's list, back to back, when n > 2¹⁶ (and in an Engine)
	nbr16   []uint16       // the same at 16 bits when n ≤ 2¹⁶
	rowIdx  []rowBlock     // per block of 64 vertices, which store a row and where; nil when H = 0
	mask    []uint64       // the stored rows in vertex order: bit i of v's row is set iff hub[i] ∈ F(v)
	hub     []graph.NodeID // the H hubs in ascending rank
	hubRow  []int32        // hubRow[i] = the index of hub[i]'s row
	work    []int64        // work[k] = counting cost of vertices [0, 64k), see weigh
}

// blockSize is the vertex width of a work sample: Count cuts the vertex
// order only at multiples of it.
const blockSize = 64

// hubCode is a hub's rank key during NewForward's scan: hubCode | i for
// hub[i] ranks it above every degree<<32 | ID key and keeps the hubs' order,
// so one compare ranks an arc and tells a row bit from a list entry.
const hubCode = 1 << 63

// NewForward builds the count-only substrate of a in one ScanInLists pass
// that keeps each neighbor ranked above its vertex, in its row if it is a
// hub and in its list if not, and one pass that places every block's lists
// and rows. workers <= 0 uses all CPUs; the same value drives every count
// on the result. A packed list that decodes to a neighbor outside [0, n), or
// lists and rows holding more forward arcs than a has edges, panic as a
// corrupt packed graph rather than index out of range. Directed graphs are
// not supported: callers must symmetrize first.
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
	f := &Forward{workers: workers, words: words, off: alloc[uint32](n + 1), hub: hub}
	blocks := parallel.Blocks(n, 0, workers)
	parts := make([]part, blocks)
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		p := &parts[b]
		p.rows = make([]uint64, 0, (hi-lo)*words) // room for a row per vertex: never grown
		// The degrees of the block's vertices but hubs, whose lists are
		// empty, halved: about the arcs its lists keep, so they seldom grow.
		var degrees uint64
		for _, k := range key[lo:hi] {
			if k < hubCode {
				degrees += k >> 32
			}
		}
		p.list = make([]graph.NodeID, 0, degrees/2+64)
		a.ScanInLists(graph.NodeID(lo), graph.NodeID(hi), nil, func(v graph.NodeID, nbrs []graph.NodeID) {
			out := p.list
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
			if words > 0 {
				h := p.moveHubs(out[k0:k], key)
				if k -= h; h > 0 || kv >= hubCode { // every hub stores its row
					p.rows = p.rows[:len(p.rows)+words]
					row := p.rows[len(p.rows)-words:]
					for _, kw := range p.codes[:h] {
						row[(kw&^hubCode)>>6] |= 1 << (kw & 63)
					}
					p.rowed = append(p.rowed, v)
				}
			}
			p.list, f.off[v] = out[:k], uint32(k-k0)
		})
	})
	listAt, rowAt := make([]int, blocks+1), make([]int, blocks+1)
	var hubArcs int64
	for b, p := range parts {
		listAt[b+1], rowAt[b+1] = listAt[b]+len(p.list), rowAt[b]+len(p.rows)
		hubArcs += p.hubArcs
	}
	if arcs := int64(listAt[blocks]) + hubArcs; arcs > int64(a.M()) {
		panic(fmt.Sprintf("triangles: corrupt packed graph: %d forward arcs over %d edges", arcs, a.M()))
	}
	narrow := n <= 1<<16
	if narrow {
		f.nbr16 = alloc[uint16](listAt[blocks])
	} else {
		f.nbr = alloc[graph.NodeID](listAt[blocks])
	}
	f.mask = alloc[uint64](rowAt[blocks])
	if words > 0 {
		f.indexRows(parts, key)
	}
	parallel.ForBlocks(n, blocks, workers, func(b, lo, hi int) {
		p, at := &parts[b], uint32(listAt[b])
		for v := lo; v < hi; v++ {
			at, f.off[v] = at+f.off[v], at
		}
		if narrow {
			to := f.nbr16[listAt[b]:listAt[b+1]]
			for i, w := range p.list {
				to[i] = uint16(w)
			}
		} else {
			copy(f.nbr[listAt[b]:], p.list)
		}
		copy(f.mask[rowAt[b]:], p.rows)
	})
	f.off[n] = uint32(listAt[blocks])
	if narrow {
		weigh(f, f.nbr16)
	} else {
		weigh(f, f.nbr)
	}
	return f
}

// part is one vertex block's share of NewForward's scan: its lists back to
// back, the rows it stores and the vertices they belong to, in order, how
// many arcs those rows hold, and the scratch of moveHubs.
type part struct {
	list    []graph.NodeID
	rows    []uint64
	rowed   []graph.NodeID
	hubArcs int64
	codes   []uint64
}

// indexRows numbers the rows the parts store, in vertex order: it sets the
// row blocks' bits and first rows, and each hub's entry of hubRow.
func (f *Forward) indexRows(parts []part, key []uint64) {
	f.rowIdx = alloc[rowBlock]((len(f.off) - 1 + blockSize - 1) / blockSize)
	f.hubRow = alloc[int32](len(f.hub))
	var r int32
	for _, p := range parts {
		for _, v := range p.rowed {
			f.rowIdx[v/blockSize].has |= 1 << (v % blockSize)
			if kv := key[v]; kv >= hubCode {
				f.hubRow[kv&^hubCode] = r
			}
			r++
		}
	}
	r = 0
	for k := range f.rowIdx {
		f.rowIdx[k].first = int64(r)
		r += int32(bits.OnesCount64(f.rowIdx[k].has))
	}
}

// moveHubs moves the hubs out of list, a vertex's arcs ranked above it, to
// p.codes[:h] as their rank keys, and returns h, how many it moved. The rest
// stay at the front of list, in order. It compacts branch-free — a hub is as
// likely as not on rmat-like graphs — through p.codes, scratch grown to
// len(list).
func (p *part) moveHubs(list []graph.NodeID, key []uint64) int {
	codes := slices.Grow(p.codes[:0], len(list))[:len(list)]
	p.codes = codes
	j, h := 0, 0
	for _, w := range list {
		kw := key[w]
		hub := int(kw >> 63)
		list[j], codes[h] = w, kw
		j, h = j+1-hub, h+hub
	}
	p.hubArcs += int64(h)
	return h
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
	hub := alloc[graph.NodeID](h)
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

// weigh fills the work prefix from nbr, f's lists: vertex a costs one
// step, stamping, erasing and scanning its list — three steps an entry, plus
// |list(b)| for every b in it — and, if a has a row, words for every b in
// its list and words + 1 for every hub in its row. work[k] sums the blocks
// below k.
func weigh[E ~uint16 | ~int32](f *Forward, nbr []E) {
	n, words := len(f.off)-1, int64(f.words)
	blocks := (n + blockSize - 1) / blockSize
	f.work = alloc[int64](blocks + 1)
	parallel.ForChunks(blocks, f.workers, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			var w int64
			for a := k * blockSize; a < min((k+1)*blockSize, n); a++ {
				fa := nbr[f.off[a]:f.off[a+1]]
				w += 1 + 3*int64(len(fa))
				for _, b := range fa {
					w += int64(f.off[int(b)+1] - f.off[b])
				}
				if r := f.rowOf(a); r >= 0 {
					w += words * int64(len(fa))
					for _, x := range f.row(r) {
						w += (words + 1) * int64(bits.OnesCount64(x))
					}
				}
			}
			f.work[k] = w
		}
	})
	parallel.ExclusiveScan(f.work, f.workers)
}

// rowBlock numbers the stored rows of 64 consecutive vertices: vertex 64k+j
// stores one iff bit j of has is set, and it is row first plus the number
// of bits set below j.
type rowBlock struct {
	has   uint64
	first int64
}

// rowOf returns the index of v's row in mask, or −1 if v stores none.
func (f *Forward) rowOf(v int) int {
	if f.words == 0 {
		return -1
	}
	b, bit := &f.rowIdx[v/blockSize], uint64(1)<<(v%blockSize)
	if b.has&bit == 0 {
		return -1
	}
	return int(b.first) + bits.OnesCount64(b.has&(bit-1))
}

// row returns the mask row at index r.
func (f *Forward) row(r int) []uint64 { return f.mask[r*f.words : (r+1)*f.words] }

// shared counts the hubs two rows of equal length both hold.
func shared(x, y []uint64) (c int64) {
	y = y[:len(x)]
	for i := range x {
		c += int64(bits.OnesCount64(x[i] & y[i]))
	}
	return c
}

// alloc returns n zero elements whose capacity is all the runtime allocates
// for them — n rounded up to a size class, or to whole pages past 32 KiB —
// so that SizeBytes, which counts capacity, is the heap the arena holds.
func alloc[E any](n int) []E { return slices.Grow([]E(nil), n)[:n] }

// SizeBytes is the heap the substrate holds: offsets, lists, row blocks,
// rows, hub tables and work prefix, each at the capacity it was allocated
// with, which the byte rule bounds but for the allocator's rounding. A
// catalog charges it to its memory budget.
func (f *Forward) SizeBytes() int64 {
	return int64(cap(f.off))*4 + int64(cap(f.nbr))*4 + int64(cap(f.nbr16))*2 + int64(cap(f.rowIdx))*16 +
		int64(cap(f.mask))*8 + int64(cap(f.hub))*4 + int64(cap(f.hubRow))*4 + int64(cap(f.work))*8
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
// against stamp, an all-zero array of n entries; nbr is f's lists at their
// stored width. It is the one count body: every width runs it.
func countRange[E ~uint16 | ~int32](f *Forward, nbr []E, lo, hi int, stamp []uint8) int64 {
	var c int64
	for a := lo; a < hi; a++ {
		fa := nbr[f.off[a]:f.off[a+1]]
		for _, w := range fa {
			stamp[w] = 1
		}
		for _, b := range fa {
			for _, w := range nbr[f.off[b]:f.off[int(b)+1]] { // int: b+1 must not wrap at 16 bits
				c += int64(stamp[w])
			}
		}
		for _, w := range fa {
			stamp[w] = 0
		}
		r := f.rowOf(a)
		if r < 0 {
			continue
		}
		ra := f.row(r)
		for _, b := range fa {
			if r := f.rowOf(int(b)); r >= 0 {
				c += shared(ra, f.row(r))
			}
		}
		for i, x := range ra {
			for ; x != 0; x &= x - 1 {
				r := int(f.hubRow[i<<6|bits.TrailingZeros64(x)])
				c += shared(ra[i:], f.row(r)[i:]) // a hub's row holds no hub ranked below it
			}
		}
	}
	return c
}

// kernel returns countRange at f's list width, over the vertices [lo, hi):
// the width is dispatched once per call that takes it, not per vertex.
func (f *Forward) kernel() func(lo, hi int, stamp []uint8) int64 {
	if f.nbr16 != nil {
		return func(lo, hi int, stamp []uint8) int64 { return countRange(f, f.nbr16, lo, hi, stamp) }
	}
	return func(lo, hi int, stamp []uint8) int64 { return countRange(f, f.nbr, lo, hi, stamp) }
}

// Count returns the number of triangles. The workers claim grains of the
// vertex order cut by counting work at block bounds; each adds into its own
// padded counter, against its own stamps. Integer addition commutes, so the
// result is independent of the worker count.
func (f *Forward) Count() int64 {
	n, blocks, count := len(f.off)-1, len(f.work)-1, f.kernel()
	nw := parallel.Resolve(f.workers, blocks)
	const pad = 8 // one cache line per counter
	acc := make([]int64, nw*pad)
	per := make([][]uint8, nw)
	parallel.ForBalancedWorker(blocks, f.workers, f.work, func(w, lo, hi int) {
		if per[w] == nil {
			per[w] = make([]uint8, n)
		}
		acc[w*pad] += count(lo*blockSize, min(hi*blockSize, n), per[w])
	})
	var total int64
	for w := 0; w < nw; w++ {
		total += acc[w*pad]
	}
	return total
}
