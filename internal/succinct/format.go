package succinct

import (
	"fmt"

	"slimgraph/internal/graph"
)

// Sections is the body of a packed (graphio v2) snapshot: the canonical
// direction of the graph, gap encoded, plus the per-block directory that
// makes decode block-parallel. Only the canonical lists are stored — a
// directed graph's out-lists, or the forward (w > v) half of each
// undirected adjacency — so every edge costs one gap on disk; the reverse
// direction is rebuilt at load time.
type Sections struct {
	BlockVertices int      // vertices per block (power of two)
	BlockOff      []uint64 // payload byte offset per block (numBlocks+1)
	EdgeStart     []uint64 // canonical edges before each block (numBlocks+1)
	Payload       []byte   // gap-encoded canonical lists, block order
}

// NumBlocks returns the number of vertex blocks.
func (s *Sections) NumBlocks() int { return len(s.BlockOff) - 1 }

// EncodeStored encodes g's canonical lists into snapshot sections. The
// bytes are deterministic for every worker count (workers <= 0 means all
// CPUs): blocks are encoded independently and concatenated in block order.
func EncodeStored(g *graph.Graph, workers int) *Sections {
	shift := shiftFor(DefaultBlockVertices)
	canonical := g.Neighbors
	if !g.Directed() {
		canonical = func(v graph.NodeID) []graph.NodeID { return forward(g.Neighbors(v), v) }
	}
	payload, blockOff, _ := encodeLists(g.N(), shift, workers, canonical)
	return &Sections{
		BlockVertices: 1 << shift,
		BlockOff:      blockOff,
		EdgeStart:     edgeStarts[uint64](g, shift),
		Payload:       payload,
	}
}

// DecodeStored rebuilds the graph from snapshot sections, block-parallel.
// weights must hold the canonical edge weights of the stored graph when
// weighted is true (nil otherwise). Corrupt sections return an error rather
// than panicking.
func DecodeStored(n, m int, directed, weighted bool, s *Sections, weights []float64, workers int) (*graph.Graph, error) {
	shift := shiftFor(s.BlockVertices)
	numBlocks := numBlocksFor(n, shift)
	if 1<<shift != s.BlockVertices {
		return nil, fmt.Errorf("succinct: block size %d is not a power of two", s.BlockVertices)
	}
	if err := checkDirectory("payload", s.BlockOff, numBlocks, uint64(len(s.Payload))); err != nil {
		return nil, err
	}
	if err := checkDirectory("edge-start", s.EdgeStart, numBlocks, uint64(m)); err != nil {
		return nil, err
	}
	if !weighted {
		weights = nil
	} else if len(weights) != m {
		return nil, fmt.Errorf("succinct: %d weights for %d edges", len(weights), m)
	}
	edges := make([]graph.Edge, m)
	err := firstBlockError(numBlocks, workers, func(b int) error {
		return s.decodeBlock(b, n, weights, edges)
	})
	if err != nil {
		return nil, err
	}
	return graph.FromCanonicalEdges(n, directed, weighted, edges, workers)
}

// decodeBlock decodes block b's canonical lists into the slots of edges the
// directory assigns them, with weights[e] (1 when nil) as edge e's weight.
// The block must consume exactly the bytes and the edges it declares.
func (s *Sections) decodeBlock(b, n int, weights []float64, edges []graph.Edge) error {
	lo, hi := blockRange(b, shiftFor(s.BlockVertices), n)
	pos, end := int(s.BlockOff[b]), int(s.BlockOff[b+1])
	ei, eiEnd := int(s.EdgeStart[b]), int(s.EdgeStart[b+1])
	var nbrs []graph.NodeID
	for v := lo; v < hi; v++ {
		var next int
		nbrs, next = DecodeList(nbrs[:0], s.Payload[:end], pos, graph.NodeID(v))
		if next == pos {
			return fmt.Errorf("succinct: vertex %d: the list does not decode", v)
		}
		if len(nbrs) > eiEnd-ei {
			return fmt.Errorf("succinct: block %d: more edges than the directory declares", b)
		}
		for _, w := range nbrs {
			edges[ei] = graph.Edge{U: graph.NodeID(v), V: w, W: 1}
			if weights != nil {
				edges[ei].W = weights[ei]
			}
			ei++
		}
		pos = next
	}
	if pos != end || ei != eiEnd {
		return fmt.Errorf("succinct: block %d: payload or edge count does not match the directory", b)
	}
	return nil
}
