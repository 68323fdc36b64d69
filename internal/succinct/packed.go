package succinct

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
)

// DefaultBlockVertices is the vertex-block granularity of the offset
// directory. 64 keeps the per-block absolute offsets at one bit per vertex
// amortized while bounding the relative-offset width.
const DefaultBlockVertices = 64

// PackedGraph is a blocked, bit-packed CSR: every adjacency list is gap
// encoded with the package codec into one payload byte stream, addressed by
// a two-level offset directory (an absolute byte offset per vertex block
// plus bit-packed per-vertex offsets relative to the block start). All
// accessors decode on the fly — a PackedGraph is traversed in place, never
// inflated.
//
// Undirected graphs encode the full adjacency (each edge appears in both
// endpoint lists, like the raw CSR); directed graphs encode both the out-
// and in-adjacency so that pull-style algorithms (PageRank) work. Canonical
// edge weights, when present, are kept as one float64 per edge in canonical
// order — weight packing is out of scope.
//
// A PackedGraph is immutable and safe for concurrent readers.
type PackedGraph struct {
	n        int
	m        int
	directed bool
	weighted bool
	shift    uint  // log2 of vertices per block
	arcs     int64 // adjacency entries in payload

	payload  []byte   // gap-encoded out-adjacency lists, block order
	blockOff []uint64 // absolute payload offset per block (numBlocks+1)
	rel      bitArray // per-vertex offset relative to its block start

	inPayload  []byte // directed only: in-adjacency mirror
	inBlockOff []uint64
	inRel      bitArray

	edgeStart []int64   // canonical edges owned by vertices before each block
	weights   []float64 // canonical edge weights; nil when unweighted

	order Order          // relabeling applied at pack time
	perm  []graph.NodeID // original ID -> packed ID; nil when OrderNone
	inv   []graph.NodeID // packed ID -> original ID; nil when OrderNone
}

// PackedGraph implements graph.Adjacency and graph.AdjacencyEdges, so both
// per-vertex traversals (BFS, PageRank) and whole-graph kernels
// (triangle counting, quality metrics) run on it in place.
var (
	_ graph.Adjacency      = (*PackedGraph)(nil)
	_ graph.AdjacencyEdges = (*PackedGraph)(nil)
)

// PackOption configures Pack.
type PackOption func(*packConfig)

type packConfig struct {
	blockVertices int
	order         Order
}

// WithOrder selects a gap-minimizing vertex relabeling applied while
// packing: the graph is relabeled during the block-parallel encode, so the
// accessors and Unpack see the permuted ID space while OriginalID/PackedID
// translate back. OrderNone (the default) keeps original IDs and original
// canonical edge IDs.
func WithOrder(o Order) PackOption {
	return func(c *packConfig) { c.order = o }
}

// WithBlockVertices overrides the vertex-block size of the offset directory,
// rounded up to a power of two (<= 0 selects the default).
func WithBlockVertices(blockVertices int) PackOption {
	return func(c *packConfig) { c.blockVertices = blockVertices }
}

// Pack encodes g. The output is deterministic: identical bytes for every
// worker count (workers <= 0 means all CPUs), for any fixed option set.
func Pack(g *graph.Graph, workers int, opts ...PackOption) *PackedGraph {
	cfg := packConfig{blockVertices: DefaultBlockVertices}
	for _, o := range opts {
		o(&cfg)
	}
	return pack(g, cfg, workers)
}

func pack(g *graph.Graph, cfg packConfig, workers int) *PackedGraph {
	shift := shiftFor(cfg.blockVertices)
	pg := &PackedGraph{
		n: g.N(), m: g.M(),
		directed: g.Directed(), weighted: g.Weighted(),
		shift: shift,
		order: cfg.order,
	}
	outList := func(v int, _ []graph.NodeID) []graph.NodeID { return g.Neighbors(graph.NodeID(v)) }
	inList := func(v int, _ []graph.NodeID) []graph.NodeID { return g.InNeighbors(graph.NodeID(v)) }
	pg.perm = ComputeOrder(g, cfg.order, workers)
	if pg.perm != nil {
		pg.inv = graph.InvertPermutation(pg.perm, workers)
		perm, inv := pg.perm, pg.inv
		outList = func(v int, buf []graph.NodeID) []graph.NodeID {
			return relabeledList(g.Neighbors(inv[v]), perm, buf)
		}
		inList = func(v int, buf []graph.NodeID) []graph.NodeID {
			return relabeledList(g.InNeighbors(inv[v]), perm, buf)
		}
	}
	var itemStart []int64
	pg.payload, pg.blockOff, itemStart, pg.rel = encodeLists(pg.n, shift, workers, true, outList)
	pg.arcs = itemStart[len(itemStart)-1]
	if pg.directed {
		pg.inPayload, pg.inBlockOff, _, pg.inRel = encodeLists(pg.n, shift, workers, true, inList)
		// Directed out-lists are the canonical edge list itself.
		pg.edgeStart = itemStart
	} else {
		pg.edgeStart = forwardStarts(pg.n, shift, workers, outList)
	}
	if pg.weighted {
		if pg.perm != nil {
			pg.weights = permutedWeights(g, pg.perm, workers)
		} else {
			pg.weights = make([]float64, pg.m)
			parallel.ForChunks(pg.m, workers, func(lo, hi int) {
				for e := lo; e < hi; e++ {
					pg.weights[e] = g.EdgeWeight(graph.EdgeID(e))
				}
			})
		}
	}
	return pg
}

// permutedWeights re-sorts g's canonical edge weights into the canonical
// order of the relabeled graph: endpoints map through perm (swapped back
// into u <= v for undirected graphs) and edges re-sort by (u, v). Simple
// graphs have unique (u, v) pairs, so the order — and the weight array — is
// fully determined.
func permutedWeights(g *graph.Graph, perm []graph.NodeID, workers int) []float64 {
	type permEdge struct {
		u, v graph.NodeID
		w    float64
	}
	m := g.M()
	edges := make([]permEdge, m)
	parallel.ForChunks(m, workers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			u, v := g.EdgeEndpoints(graph.EdgeID(e))
			nu, nv := perm[u], perm[v]
			if !g.Directed() && nu > nv {
				nu, nv = nv, nu
			}
			edges[e] = permEdge{u: nu, v: nv, w: g.EdgeWeight(graph.EdgeID(e))}
		}
	})
	slices.SortFunc(edges, func(a, b permEdge) int {
		switch {
		case a.u != b.u:
			return int(a.u) - int(b.u)
		case a.v != b.v:
			return int(a.v) - int(b.v)
		}
		return 0
	})
	weights := make([]float64, m)
	for e := range edges {
		weights[e] = edges[e].w
	}
	return weights
}

// shiftFor rounds blockVertices up to a power of two and returns its log2.
func shiftFor(blockVertices int) uint {
	if blockVertices <= 0 {
		blockVertices = DefaultBlockVertices
	}
	return uint(bits.Len64(uint64(blockVertices - 1)))
}

func numBlocksFor(n int, shift uint) int {
	if n == 0 {
		return 0
	}
	return ((n - 1) >> shift) + 1
}

// encodeLists gap-encodes list(v) for every v in [0, n) into one payload.
// Vertex blocks (fixed size 1<<shift) are encoded independently under
// parallel.ForBlocks and concatenated in block order, so the bytes are
// identical for every worker count. It returns the payload, the absolute
// per-block byte offsets (numBlocks+1), the exclusive prefix sums of list
// lengths per block (numBlocks+1), and — when withRel — the bit-packed
// per-vertex offsets relative to the block starts.
//
// list receives a scratch slice it may reuse (relabeling closures build the
// permuted list in it); the returned slice becomes the next call's scratch.
// list must be safe for concurrent calls on distinct scratches.
func encodeLists(n int, shift uint, workers int, withRel bool, list func(v int, buf []graph.NodeID) []graph.NodeID) ([]byte, []uint64, []int64, bitArray) {
	numBlocks := numBlocksFor(n, shift)
	bufs := make([][]byte, numBlocks)
	var relOf [][]uint32
	if withRel {
		relOf = make([][]uint32, numBlocks)
	}
	itemStart := make([]int64, numBlocks+1)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) {
		lo := b << shift
		hi := lo + 1<<shift
		if hi > n {
			hi = n
		}
		var buf []byte
		var rels []uint32
		var items int64
		var scratch []graph.NodeID
		for v := lo; v < hi; v++ {
			if withRel {
				rels = append(rels, uint32(len(buf)))
			}
			nb := list(v, scratch)
			scratch = nb
			items += int64(len(nb))
			buf = AppendList(buf, graph.NodeID(v), nb)
		}
		bufs[b] = buf
		if withRel {
			relOf[b] = rels
		}
		itemStart[b+1] = items
	})
	blockOff := make([]uint64, numBlocks+1)
	var maxRel uint64
	for b := 0; b < numBlocks; b++ {
		blockOff[b+1] = blockOff[b] + uint64(len(bufs[b]))
		itemStart[b+1] += itemStart[b]
		if withRel {
			if rels := relOf[b]; len(rels) > 0 {
				if last := uint64(rels[len(rels)-1]); last > maxRel {
					maxRel = last
				}
			}
		}
	}
	payload := make([]byte, blockOff[numBlocks])
	parallel.ForChunks(numBlocks, workers, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			copy(payload[blockOff[b]:], bufs[b])
		}
	})
	var rel bitArray
	if withRel {
		rel = newBitArray(n, widthFor(maxRel))
		// Entries straddle word boundaries, so the fill is serial.
		for b := 0; b < numBlocks; b++ {
			base := b << shift
			for i, r := range relOf[b] {
				rel.set(base+i, uint64(r))
			}
		}
	}
	return payload, blockOff, itemStart, rel
}

// forwardStarts returns, per vertex block, the number of canonical edges
// owned by earlier blocks. An undirected vertex owns its forward arcs
// (neighbors greater than itself) — exactly the canonical (U <= V) list.
// list follows the encodeLists scratch contract, so the same (possibly
// relabeling) closure feeds both.
func forwardStarts(n int, shift uint, workers int, list func(v int, buf []graph.NodeID) []graph.NodeID) []int64 {
	numBlocks := numBlocksFor(n, shift)
	starts := make([]int64, numBlocks+1)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) {
		lo := b << shift
		hi := lo + 1<<shift
		if hi > n {
			hi = n
		}
		var c int64
		var scratch []graph.NodeID
		for v := lo; v < hi; v++ {
			nb := list(v, scratch)
			scratch = nb
			i := sort.Search(len(nb), func(i int) bool { return nb[i] > graph.NodeID(v) })
			c += int64(len(nb) - i)
		}
		starts[b+1] = c
	})
	for b := 0; b < numBlocks; b++ {
		starts[b+1] += starts[b]
	}
	return starts
}

// N returns the number of vertices.
func (pg *PackedGraph) N() int { return pg.n }

// M returns the number of canonical edges.
func (pg *PackedGraph) M() int { return pg.m }

// NumArcs returns the number of encoded out-adjacency entries (2M for
// undirected graphs, M for directed ones).
func (pg *PackedGraph) NumArcs() int64 { return pg.arcs }

// Directed reports whether the graph is directed.
func (pg *PackedGraph) Directed() bool { return pg.directed }

// Weighted reports whether canonical edge weights are stored.
func (pg *PackedGraph) Weighted() bool { return pg.weighted }

// BlockVertices returns the vertex-block size of the offset directory.
func (pg *PackedGraph) BlockVertices() int { return 1 << pg.shift }

// start returns the payload position of v's encoded list.
func (pg *PackedGraph) start(v graph.NodeID) int {
	return int(pg.blockOff[int(v)>>pg.shift]) + int(pg.rel.get(int(v)))
}

func (pg *PackedGraph) inStart(v graph.NodeID) int {
	return int(pg.inBlockOff[int(v)>>pg.shift]) + int(pg.inRel.get(int(v)))
}

// Degree returns the out-degree of v: one varint decode, nearly always of a
// single byte. That case is tested here rather than inside Uvarint, which
// would no longer inline into the list scans with it.
func (pg *PackedGraph) Degree(v graph.NodeID) int {
	pos := pg.start(v)
	if pos < len(pg.payload) && pg.payload[pos] < 0x80 {
		return int(pg.payload[pos])
	}
	d, _ := Uvarint(pg.payload, pos)
	return int(d)
}

// InDegree returns the in-degree of v (equal to Degree for undirected
// graphs).
func (pg *PackedGraph) InDegree(v graph.NodeID) int {
	if !pg.directed {
		return pg.Degree(v)
	}
	d, _ := Uvarint(pg.inPayload, pg.inStart(v))
	return int(d)
}

// forList decodes the list at pos, invoking fn for every neighbor in
// increasing order.
func forList(buf []byte, pos int, base graph.NodeID, fn func(w graph.NodeID)) {
	d, p := Uvarint(buf, pos)
	if d == 0 {
		return
	}
	raw, p := Uvarint(buf, p)
	cur := int64(base) + UnZigZag(raw)
	fn(graph.NodeID(cur))
	for i := uint64(1); i < d; i++ {
		gap, q := Uvarint(buf, p)
		cur += int64(gap) + 1
		fn(graph.NodeID(cur))
		p = q
	}
}

// ForNeighbors decodes v's out-neighbors on the fly, in increasing order,
// without allocating.
func (pg *PackedGraph) ForNeighbors(v graph.NodeID, fn func(w graph.NodeID)) {
	forList(pg.payload, pg.start(v), v, fn)
}

// ScanInLists decodes the in-lists of [lo, hi) back to back into buf: the
// offset directory is resolved once, for lo, and every later list starts
// where the previous one ended (blocks are contiguous in the payload). A
// list that fails to decode reads as empty and the scan resumes from the
// directory.
func (pg *PackedGraph) ScanInLists(lo, hi graph.NodeID, buf []graph.NodeID, fn func(v graph.NodeID, nbrs []graph.NodeID)) []graph.NodeID {
	if lo >= hi {
		return buf
	}
	payload, start := pg.payload, pg.start
	if pg.directed {
		payload, start = pg.inPayload, pg.inStart
	}
	pos := start(lo)
	for v := lo; v < hi; v++ {
		var next int
		buf, next = DecodeList(buf[:0], payload, pos, v)
		if next == pos && v+1 < hi {
			next = start(v + 1)
		}
		pos = next
		fn(v, buf)
	}
	return buf
}

// FirstInNeighborIn decodes v's in-list only up to its first member of set,
// satisfying graph.Adjacency. A list that fails to decode before a member
// turns up reads as having none.
func (pg *PackedGraph) FirstInNeighborIn(v graph.NodeID, set *bitset.Bits) graph.NodeID {
	if pg.directed {
		return firstInSet(pg.inPayload, pg.inStart(v), v, pg.n, set)
	}
	return firstInSet(pg.payload, pg.start(v), v, pg.n, set)
}

// Neighbors appends v's decoded out-neighbors to dst and returns the grown
// slice — the buffer-reusing bulk decode.
func (pg *PackedGraph) Neighbors(dst []graph.NodeID, v graph.NodeID) []graph.NodeID {
	dst, _ = DecodeList(dst, pg.payload, pg.start(v), v)
	return dst
}

// EdgeWeight returns the weight of canonical edge e (1 when unweighted).
func (pg *PackedGraph) EdgeWeight(e graph.EdgeID) float64 {
	if pg.weights == nil {
		return 1
	}
	return pg.weights[e]
}

// Order returns the vertex relabeling applied at pack time.
func (pg *PackedGraph) Order() Order { return pg.order }

// Perm returns the pack-time permutation with Perm()[original] = packed, or
// nil when no relabeling was applied. Callers must not modify it. It
// composes into a scheme pipeline's vertex map exactly like a relabel stage.
func (pg *PackedGraph) Perm() []graph.NodeID { return pg.perm }

// OriginalID maps a packed vertex ID back to the graph it was packed from
// (the identity when unordered).
func (pg *PackedGraph) OriginalID(v graph.NodeID) graph.NodeID {
	if pg.inv == nil {
		return v
	}
	return pg.inv[v]
}

// PackedID maps an original vertex ID to its packed ID (the identity when
// unordered).
func (pg *PackedGraph) PackedID(v graph.NodeID) graph.NodeID {
	if pg.perm == nil {
		return v
	}
	return pg.perm[v]
}

// forCanonicalBlock decodes the canonical arcs of block b in edge-ID order,
// invoking fn with each edge's ID and endpoints (in the packed ID space).
func (pg *PackedGraph) forCanonicalBlock(b int, fn func(e int64, u, v graph.NodeID)) {
	lo := b << pg.shift
	hi := lo + 1<<pg.shift
	if hi > pg.n {
		hi = pg.n
	}
	ei := pg.edgeStart[b]
	pos := int(pg.blockOff[b])
	for v := lo; v < hi; v++ {
		d, p := Uvarint(pg.payload, pos)
		cur := int64(v)
		for i := uint64(0); i < d; i++ {
			raw, q := Uvarint(pg.payload, p)
			if i == 0 {
				cur += UnZigZag(raw)
			} else {
				cur += int64(raw) + 1
			}
			p = q
			if pg.directed || cur > int64(v) {
				fn(ei, graph.NodeID(v), graph.NodeID(cur))
				ei++
			}
		}
		pos = p
	}
}

// ForEdges invokes fn for every canonical edge in increasing EdgeID order
// with its endpoints and weight, decoding the payload on the fly — the
// graph.AdjacencyEdges view whole-graph kernels consume. IDs are in the
// packed space; map through OriginalID for relabeled packs.
func (pg *PackedGraph) ForEdges(fn func(e graph.EdgeID, u, v graph.NodeID, w float64)) {
	numBlocks := numBlocksFor(pg.n, pg.shift)
	for b := 0; b < numBlocks; b++ {
		pg.forCanonicalBlock(b, func(e int64, u, v graph.NodeID) {
			fn(graph.EdgeID(e), u, v, pg.EdgeWeight(graph.EdgeID(e)))
		})
	}
}

// FillEdgeColumns decodes the canonical edge endpoints into eu and ev (len
// M() each), block-parallel — the bulk edge fetch behind the packed triangle
// engine build. workers <= 0 means all CPUs.
func (pg *PackedGraph) FillEdgeColumns(eu, ev []graph.NodeID, workers int) {
	numBlocks := numBlocksFor(pg.n, pg.shift)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) {
		pg.forCanonicalBlock(b, func(e int64, u, v graph.NodeID) {
			eu[e], ev[e] = u, v
		})
	})
}

// UnpackHook, when non-nil, observes every Unpack call before any decoding
// happens. It exists for tests that pin the serving-layer guarantee that no
// query path unpacks a packed graph: installing a failing hook turns a
// regression into a loud test failure. Production code leaves it nil; it is
// not synchronized and must only be set before concurrent use.
var UnpackHook func(*PackedGraph)

// Unpack restores the full CSR graph in the ORIGINAL ID space. Pack followed
// by Unpack is lossless for every ordering: the result is graph.Equal to the
// packed input. workers <= 0 means all CPUs; the output never depends on the
// worker count.
func (pg *PackedGraph) Unpack(workers int) *graph.Graph {
	if UnpackHook != nil {
		UnpackHook(pg)
	}
	numBlocks := numBlocksFor(pg.n, pg.shift)
	edges := make([]graph.Edge, pg.m)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) {
		pg.forCanonicalBlock(b, func(e int64, u, v graph.NodeID) {
			edges[e] = graph.Edge{U: u, V: v, W: pg.EdgeWeight(graph.EdgeID(e))}
		})
	})
	if pg.inv != nil {
		// Relabeled pack: map endpoints back to original IDs. The mapping
		// scrambles canonical order, so rebuild through the deterministic
		// counting-sort path instead of FromCanonicalEdges.
		inv := pg.inv
		parallel.ForChunks(pg.m, workers, func(lo, hi int) {
			for e := lo; e < hi; e++ {
				edges[e].U = inv[edges[e].U]
				edges[e].V = inv[edges[e].V]
			}
		})
		bld := graph.NewBuilder(pg.n, pg.directed)
		bld.AddEdges(edges)
		if pg.weighted {
			bld.SetWeighted()
		}
		g, err := bld.Build()
		if err != nil {
			panic(fmt.Sprintf("succinct: corrupt packed graph: %v", err))
		}
		return g
	}
	g, err := graph.FromCanonicalEdges(pg.n, pg.directed, pg.weighted, edges)
	if err != nil {
		panic(fmt.Sprintf("succinct: corrupt packed graph: %v", err))
	}
	return g
}

// Stats breaks down a PackedGraph's footprint.
type Stats struct {
	PayloadBytes  int64 // gap-encoded adjacency stream(s)
	DirectoryBits int64 // block offsets + relative offsets + edge starts + pack-time permutation
	WeightBytes   int64
	SizeBits      int64   // total
	BitsPerEdge   float64 // SizeBits / M
	RawCSRBits    int64   // footprint of the graph.Graph arrays it replaces
}

// SizeBits returns the total in-memory footprint in bits. A relabeled pack
// honestly counts its permutation and inverse at 32 bits per vertex each.
func (pg *PackedGraph) SizeBits() int64 {
	payload := int64(len(pg.payload)+len(pg.inPayload)) * 8
	dir := int64(len(pg.blockOff)+len(pg.inBlockOff)+len(pg.edgeStart)) * 64
	dir += pg.rel.sizeBits() + pg.inRel.sizeBits()
	dir += int64(len(pg.perm)+len(pg.inv)) * 32
	return payload + dir + int64(len(pg.weights))*64
}

// BitsPerEdge returns SizeBits normalized by the canonical edge count.
func (pg *PackedGraph) BitsPerEdge() float64 {
	if pg.m == 0 {
		return 0
	}
	return float64(pg.SizeBits()) / float64(pg.m)
}

// Stats returns the footprint breakdown.
func (pg *PackedGraph) Stats() Stats {
	s := Stats{
		PayloadBytes: int64(len(pg.payload) + len(pg.inPayload)),
		WeightBytes:  int64(len(pg.weights)) * 8,
		SizeBits:     pg.SizeBits(),
		BitsPerEdge:  pg.BitsPerEdge(),
	}
	s.DirectoryBits = s.SizeBits - s.PayloadBytes*8 - s.WeightBytes*8
	// The raw CSR: offsets (n+1)*64, nbrs+eids 64 per arc, edge columns 64
	// per edge, doubled offsets/arcs for the directed in-CSR, weights 64
	// per edge.
	arcs := pg.arcs
	offsets := int64(pg.n+1) * 64
	if pg.directed {
		arcs *= 2
		offsets *= 2
	}
	s.RawCSRBits = offsets + arcs*64 + int64(pg.m)*64
	if pg.weighted {
		s.RawCSRBits += int64(pg.m) * 64
	}
	return s
}

// String summarizes the packed graph.
func (pg *PackedGraph) String() string {
	kind := "undirected"
	if pg.directed {
		kind = "directed"
	}
	return fmt.Sprintf("packed %s graph: n=%d m=%d %.1f bits/edge", kind, pg.n, pg.m, pg.BitsPerEdge())
}
