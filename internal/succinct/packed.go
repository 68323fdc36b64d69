package succinct

import (
	"fmt"
	"math/bits"
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
}

// WithBlockVertices overrides the vertex-block size of the offset directory,
// rounded up to a power of two (<= 0 selects the default).
func WithBlockVertices(blockVertices int) PackOption {
	return func(c *packConfig) { c.blockVertices = blockVertices }
}

// Pack encodes g under its own vertex IDs, so canonical edge IDs are g's
// too; a locality order is applied before packing, by relabeling g (the
// relabel scheme, ComputeOrder with graph.Permute). The output is
// deterministic: identical bytes for every worker count (workers <= 0 means
// all CPUs), for any fixed option set.
func Pack(g *graph.Graph, workers int, opts ...PackOption) *PackedGraph {
	cfg := packConfig{blockVertices: DefaultBlockVertices}
	for _, o := range opts {
		o(&cfg)
	}
	shift := shiftFor(cfg.blockVertices)
	pg := &PackedGraph{
		n: g.N(), m: g.M(),
		directed: g.Directed(), weighted: g.Weighted(),
		shift: shift,
		arcs:  int64(g.NumArcs()),
	}
	pg.payload, pg.blockOff, pg.rel = encodeLists(pg.n, shift, workers, g.Neighbors)
	if pg.directed {
		pg.inPayload, pg.inBlockOff, pg.inRel = encodeLists(pg.n, shift, workers, g.InNeighbors)
	}
	pg.edgeStart = edgeStarts[int64](g, shift)
	pg.weights = canonicalWeights(g, workers)
	return pg
}

// canonicalWeights copies g's canonical edge weights out, or returns nil
// when g is unweighted.
func canonicalWeights(g *graph.Graph, workers int) []float64 {
	if !g.Weighted() {
		return nil
	}
	weights := make([]float64, g.M())
	parallel.ForChunks(g.M(), workers, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			weights[e] = g.EdgeWeight(graph.EdgeID(e))
		}
	})
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

// blockRange returns the vertices [lo, hi) of block b.
func blockRange(b int, shift uint, n int) (lo, hi int) {
	lo = b << shift
	return lo, min(lo+1<<shift, n)
}

// firstBlockError runs check for every block in parallel and returns the
// error of the lowest block that has one.
func firstBlockError(numBlocks, workers int, check func(b int) error) error {
	errs := make([]error, numBlocks)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) { errs[b] = check(b) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// encodeLists gap-encodes list(v) for every v in [0, n) into one payload.
// Vertex blocks (fixed size 1<<shift) are encoded independently under
// parallel.ForBlocks and concatenated in block order, so the bytes are
// identical for every worker count. It returns the payload, the absolute
// per-block byte offsets (numBlocks+1), and the bit-packed per-vertex
// offsets relative to the block starts. list must be safe for concurrent
// calls.
func encodeLists(n int, shift uint, workers int, list func(v graph.NodeID) []graph.NodeID) ([]byte, []uint64, bitArray) {
	numBlocks := numBlocksFor(n, shift)
	bufs := make([][]byte, numBlocks)
	relOf := make([][]uint32, numBlocks)
	parallel.ForBlocks(numBlocks, numBlocks, workers, func(b, _, _ int) {
		lo, hi := blockRange(b, shift, n)
		var buf []byte
		rels := make([]uint32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			rels = append(rels, uint32(len(buf)))
			buf = AppendList(buf, graph.NodeID(v), list(graph.NodeID(v)))
		}
		bufs[b], relOf[b] = buf, rels
	})
	blockOff := make([]uint64, numBlocks+1)
	var maxRel uint64
	for b, rels := range relOf {
		blockOff[b+1] = blockOff[b] + uint64(len(bufs[b]))
		maxRel = max(maxRel, uint64(rels[len(rels)-1]))
	}
	payload := make([]byte, blockOff[numBlocks])
	parallel.ForChunks(numBlocks, workers, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			copy(payload[blockOff[b]:], bufs[b])
		}
	})
	rel := newBitArray(n, widthFor(maxRel))
	// Entries straddle word boundaries, so the fill is serial.
	for b, rels := range relOf {
		for i, r := range rels {
			rel.set(b<<shift+i, uint64(r))
		}
	}
	return payload, blockOff, rel
}

// edgeStarts returns, per vertex block, the number of canonical edges owned
// by earlier blocks (numBlocks+1 entries). Canonical edges are sorted by
// their owning endpoint U — a directed edge's source, the smaller endpoint
// of an undirected one — so each entry is the first edge ID whose U reaches
// the block.
func edgeStarts[T int64 | uint64](g *graph.Graph, shift uint) []T {
	eu, _ := g.EdgeColumns()
	starts := make([]T, numBlocksFor(g.N(), shift)+1)
	for b := range starts {
		starts[b] = T(sort.Search(len(eu), func(e int) bool { return int(eu[e]) >= b<<shift }))
	}
	return starts
}

// N returns the number of vertices.
func (pg *PackedGraph) N() int { return pg.n }

// M returns the number of canonical edges.
func (pg *PackedGraph) M() int { return pg.m }

// NumArcs returns the number of encoded out-adjacency entries (2M for
// undirected graphs, M for directed ones).
func (pg *PackedGraph) NumArcs() int { return int(pg.arcs) }

// Directed reports whether the graph is directed.
func (pg *PackedGraph) Directed() bool { return pg.directed }

// Weighted reports whether canonical edge weights are stored.
func (pg *PackedGraph) Weighted() bool { return pg.weighted }

// BlockVertices returns the vertex-block size of the offset directory.
func (pg *PackedGraph) BlockVertices() int { return 1 << pg.shift }

// start returns the payload position of v's encoded list. Every accessor
// begins here, so it is kept within the inliner's budget.
func (pg *PackedGraph) start(v graph.NodeID) int {
	return int(pg.blockOff[v>>pg.shift]) + int(pg.rel.get(int(v)))
}

func (pg *PackedGraph) inStart(v graph.NodeID) int {
	return int(pg.inBlockOff[v>>pg.shift]) + int(pg.inRel.get(int(v)))
}

// Degree returns the out-degree of v: the length header of its list, nearly
// always a single byte. A header that does not decode, or that declares
// more entries than the payload has bytes left, reads as 0.
func (pg *PackedGraph) Degree(v graph.NodeID) int {
	return listLen(pg.payload, pg.start(v))
}

// InDegree returns the in-degree of v (equal to Degree for undirected
// graphs).
func (pg *PackedGraph) InDegree(v graph.NodeID) int {
	if !pg.directed {
		return pg.Degree(v)
	}
	return listLen(pg.inPayload, pg.inStart(v))
}

// ForNeighbors decodes v's out-neighbors on the fly, in increasing order,
// without allocating.
func (pg *PackedGraph) ForNeighbors(v graph.NodeID, fn func(w graph.NodeID)) {
	streamList(pg.payload, pg.start(v), v, fn)
}

// ScanInLists decodes the in-lists of [lo, hi) back to back into buf,
// satisfying graph.Adjacency.
func (pg *PackedGraph) ScanInLists(lo, hi graph.NodeID, buf []graph.NodeID, fn func(v graph.NodeID, nbrs []graph.NodeID)) []graph.NodeID {
	return pg.scanLists(true, lo, hi, buf, fn)
}

// scanLists decodes the out-lists of [lo, hi), or with in their in-lists,
// back to back into buf: the offset directory is resolved once, for lo, and
// every later list starts where the previous one ended (blocks are
// contiguous in the payload). A list that fails to decode reads as empty
// and the scan resumes from the directory; behind a damaged list that still
// decodes, the scan is out of step with the directory until then.
func (pg *PackedGraph) scanLists(in bool, lo, hi graph.NodeID, buf []graph.NodeID, fn func(v graph.NodeID, nbrs []graph.NodeID)) []graph.NodeID {
	if lo >= hi {
		return buf
	}
	payload, start := pg.payload, pg.start
	if in && pg.directed {
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

// forward returns the neighbors greater than v: the arcs an undirected
// vertex owns, which are exactly its canonical (U < V) edges.
func forward(nbrs []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] > v })
	return nbrs[i:]
}

// forCanonical decodes the canonical arcs block-parallel, invoking fn(b, e,
// u, vs) once per vertex u of directory block b with the canonical edges u
// owns: their endpoints vs (its forward list when undirected, its out-list
// when directed, in increasing order) and the ID e of the first, the rest
// following consecutively — within a block, and with one worker over all of
// them, in increasing edge-ID order. Lists decode strictly increasing
// (doc.go), so what fn sees
// is canonical by construction once each endpoint lies in [0, n), no arc is
// a self-loop and every block holds exactly the edges its directory
// declares. fn sees a list only after all of it passed those checks. A
// payload that breaks any of them panics as a corrupt packed graph, from the
// calling goroutine once the blocks have drained; fn never sees an edge ID
// outside its block or an endpoint outside [0, n).
func (pg *PackedGraph) forCanonical(workers int, fn func(b int, e int64, u graph.NodeID, vs []graph.NodeID)) {
	numBlocks := numBlocksFor(pg.n, pg.shift)
	var err error
	if declared := pg.edgeStart[numBlocks]; declared != int64(pg.m) {
		err = fmt.Errorf("%d edges, directory declares %d", pg.m, declared)
	} else {
		err = firstBlockError(numBlocks, workers, func(b int) (err error) {
			lo, hi := blockRange(b, pg.shift, pg.n)
			e, end := pg.edgeStart[b], pg.edgeStart[b+1]
			pg.scanLists(false, graph.NodeID(lo), graph.NodeID(hi), nil, func(u graph.NodeID, nbrs []graph.NodeID) {
				if !pg.directed {
					nbrs = forward(nbrs, u)
				}
				if err != nil || len(nbrs) == 0 {
					return
				}
				if e+int64(len(nbrs)) > end {
					err = fmt.Errorf("block %d holds more than its %d edges", b, end-pg.edgeStart[b])
					return
				}
				// A decoded list rises strictly from 0 up and a forward list
				// starts above u, so only its last entry can be out of range;
				// a directed list may hold u anywhere and is read whole.
				if int(nbrs[len(nbrs)-1]) >= pg.n || pg.directed {
					for _, v := range nbrs {
						if uint(v) >= uint(pg.n) || v == u {
							err = fmt.Errorf("vertex %d lists neighbor %d of %d", u, v, pg.n)
							return
						}
					}
				}
				fn(b, e, u, nbrs)
				e += int64(len(nbrs))
			})
			if err == nil && e != end {
				err = fmt.Errorf("block %d holds %d of its %d edges", b, e-pg.edgeStart[b], end-pg.edgeStart[b])
			}
			return err
		})
	}
	if err != nil {
		panic(fmt.Sprintf("succinct: corrupt packed graph: %v", err))
	}
}

// ForEdges invokes fn for every canonical edge in increasing EdgeID order
// with its endpoints and weight, decoding the payload on the fly — the
// graph.AdjacencyEdges view whole-graph kernels consume.
func (pg *PackedGraph) ForEdges(fn func(e graph.EdgeID, u, v graph.NodeID, w float64)) {
	pg.forCanonical(1, func(_ int, e int64, u graph.NodeID, vs []graph.NodeID) {
		for i, v := range vs {
			id := graph.EdgeID(e) + graph.EdgeID(i)
			fn(id, u, v, pg.EdgeWeight(id))
		}
	})
}

// CanonicalBlocks returns the number of blocks ForCanonicalLists walks: one
// per vertex block of the offset directory.
func (pg *PackedGraph) CanonicalBlocks() int { return numBlocksFor(pg.n, pg.shift) }

// ForCanonicalLists is forCanonical's validated list-by-list walk of the
// canonical edges, the one bulk read of them: fn(b, e, u, vs) sees vertex
// u's canonical edges, IDs e, e+1, … with endpoints vs, from the goroutine
// that owns block b in [0, CanonicalBlocks()), in increasing edge-ID order
// within a block. vs is valid only until fn returns. graph.EdgeColumnsOf
// fills the edge columns from it and graph.GatherCanonical keeps what a
// caller picks of each list; a corrupt payload panics as forCanonical does.
// workers <= 0 means all CPUs.
func (pg *PackedGraph) ForCanonicalLists(workers int, fn func(b int, e int64, u graph.NodeID, vs []graph.NodeID)) {
	pg.forCanonical(workers, fn)
}

// UnpackHook, when non-nil, observes every Unpack call before any decoding
// happens. It exists for tests that pin the serving-layer guarantee that no
// query path unpacks a packed graph: installing a failing hook turns a
// regression into a loud test failure. Production code leaves it nil; it is
// not synchronized and must only be set before concurrent use.
var UnpackHook func(*PackedGraph)

// Unpack restores the full CSR graph. Pack followed by Unpack is lossless:
// the result is graph.Equal to the packed input. workers <= 0 means all
// CPUs; the output never depends on the worker count.
func (pg *PackedGraph) Unpack(workers int) *graph.Graph {
	if UnpackHook != nil {
		UnpackHook(pg)
	}
	edges := make([]graph.Edge, pg.m)
	pg.forCanonical(workers, func(_ int, e int64, u graph.NodeID, vs []graph.NodeID) {
		for i, v := range vs {
			id := graph.EdgeID(e) + graph.EdgeID(i)
			edges[id] = graph.Edge{U: u, V: v, W: pg.EdgeWeight(id)}
		}
	})
	g, err := graph.FromCanonicalEdges(pg.n, pg.directed, pg.weighted, edges, workers)
	if err != nil {
		panic(fmt.Sprintf("succinct: corrupt packed graph: %v", err))
	}
	return g
}

// Stats breaks down a PackedGraph's footprint.
type Stats struct {
	PayloadBytes  int64 // gap-encoded adjacency stream(s)
	DirectoryBits int64 // block offsets + relative offsets + edge starts
	WeightBytes   int64
	SizeBits      int64   // total
	BitsPerEdge   float64 // SizeBits / M
	RawCSRBits    int64   // footprint of the graph.Graph arrays it replaces
}

// SizeBits returns the total in-memory footprint in bits.
func (pg *PackedGraph) SizeBits() int64 {
	payload := int64(len(pg.payload)+len(pg.inPayload)) * 8
	dir := int64(len(pg.blockOff)+len(pg.inBlockOff)+len(pg.edgeStart)) * 64
	dir += pg.rel.sizeBits() + pg.inRel.sizeBits()
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
	s.RawCSRBits = graph.CSRBytes(pg.n, int(pg.arcs), pg.m, pg.directed, pg.weighted) * 8
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
