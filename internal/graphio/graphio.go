// Package graphio reads and writes graphs in the text edge-list formats of
// the GAP Benchmark Suite (.el unweighted, .wel weighted) and two versioned
// binary snapshot formats sharing one header: v1 ("binary"), the
// fixed-width canonical edge list, and v2 ("packed"), the succinct
// gap-encoded form of internal/succinct — typically 3-4x smaller. Read
// dispatches on the version tag. Byte counts from this package back the
// storage-reduction numbers in the evaluation.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// WriteEdgeList writes one "u v" (or "u v w" when weighted) line per
// canonical edge, preceded by a "# Nodes: N Edges: M" header comment so
// that trailing isolated vertices survive a ReadEdgeList round trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# Nodes: %d Edges: %d\n", g.N(), g.M()); err != nil {
		return err
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		var err error
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, g.EdgeWeight(graph.EdgeID(e)))
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge list: two or three whitespace-separated fields
// per line ("u v" or "u v w"); lines starting with '#' or '%' are comments.
// The vertex count is 1 + the maximum ID seen, unless a SNAP-style
// "# Nodes: N" header comment raises it — so trailing isolated vertices
// survive the round trip. Use ReadEdgeListN to force the count explicitly.
func ReadEdgeList(r io.Reader, directed bool) (*graph.Graph, error) {
	return readEdgeList(r, directed, 0)
}

// ReadEdgeListN is ReadEdgeList with an explicit vertex-count override: the
// graph has exactly n vertices, and any edge endpoint >= n is an error.
// n <= 0 falls back to the inferred count. The override wins over a
// "# Nodes:" header.
func ReadEdgeListN(r io.Reader, directed bool, n int) (*graph.Graph, error) {
	if n <= 0 {
		return readEdgeList(r, directed, 0)
	}
	return readEdgeList(r, directed, n)
}

func readEdgeList(r io.Reader, directed bool, forceN int) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var edges []graph.Edge
	maxID := graph.NodeID(-1)
	headerN := 0
	weighted := false
	line := 0
	for {
		raw, err := readLine(br)
		if err == io.EOF && raw == "" {
			break
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("graphio: line %d: %v", line+1, err)
		}
		line++
		text := strings.TrimSpace(raw)
		if text == "" || text[0] == '#' || text[0] == '%' {
			// First header wins; later comments cannot override it.
			if n, ok := parseNodesHeader(text); ok && headerN == 0 {
				headerN = n
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graphio: line %d: want 2 or 3 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", line, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: %v", line, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex ID", line)
		}
		w := 1.0
		if len(fields) == 3 {
			w, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: %v", line, err)
			}
			weighted = true
		}
		e := graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v), W: w}
		edges = append(edges, e)
		if e.U > maxID {
			maxID = e.U
		}
		if e.V > maxID {
			maxID = e.V
		}
	}
	n := int(maxID) + 1
	if headerN > n {
		n = headerN
	}
	if forceN > 0 {
		if int64(maxID) >= int64(forceN) {
			return nil, fmt.Errorf("graphio: vertex ID %d exceeds the explicit vertex count %d", maxID, forceN)
		}
		n = forceN
	}
	b := graph.NewBuilder(n, directed)
	b.AddEdges(edges)
	if weighted {
		b.SetWeighted()
	}
	return b.Build()
}

// readLine reads one '\n'-terminated line of any length, growing as needed —
// unlike a fixed-buffer bufio.Scanner, a single enormous adjacency line (a
// hub vertex exported one-line-per-vertex, a minified upload) cannot fail
// the parse. The trailing newline is stripped; the final unterminated line
// is returned alongside io.EOF.
func readLine(br *bufio.Reader) (string, error) {
	frag, err := br.ReadSlice('\n')
	if err == nil || (err == io.EOF && len(frag) > 0) {
		return strings.TrimSuffix(string(frag), "\n"), nil
	}
	if err != bufio.ErrBufferFull {
		return string(frag), err
	}
	// Line longer than the reader's buffer: accumulate fragments.
	long := append([]byte(nil), frag...)
	for {
		frag, err = br.ReadSlice('\n')
		long = append(long, frag...)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err == nil || (err == io.EOF && len(long) > 0) {
			return strings.TrimSuffix(string(long), "\n"), nil
		}
		return string(long), err
	}
}

// parseNodesHeader recognizes SNAP-style node-count header comments such as
// "# Nodes: 75879 Edges: 508837" (also "% Nodes: N" and "#Nodes: N"). Only
// a "Nodes:" token leading the comment counts — prose comments that merely
// mention the word ("# removed nodes: 5") are not headers. It returns the
// declared count and whether the line carried one.
func parseNodesHeader(comment string) (int, bool) {
	fields := strings.Fields(comment)
	// Strip the comment marker, whether attached ("#Nodes:") or detached.
	if len(fields) > 0 && (fields[0] == "#" || fields[0] == "%") {
		fields = fields[1:]
	} else if len(fields) > 0 {
		fields[0] = strings.TrimLeft(fields[0], "#%")
	}
	if len(fields) < 2 || !strings.EqualFold(fields[0], "nodes:") {
		return 0, false
	}
	if n, err := strconv.Atoi(strings.TrimRight(fields[1], ",;")); err == nil && n >= 0 {
		return n, true
	}
	return 0, false
}

// Binary snapshot formats share a 16-byte header: magic, version, flags,
// minor, n, m. Version 1 ("binary") is the fixed-width canonical edge list;
// version 2 ("packed") is the succinct gap-encoded form. Little-endian
// throughout.
//
// The u16 at offset 6 was padding through v2.0 (always written zero) and now
// carries the minor version: packed minor 0 is the compact wire form decoded
// here, minor 1 (succinct.ServableMinor) is the 8-aligned servable image of
// internal/succinct that memory-maps without a decode pass. Old files read
// as minor 0, old readers see minor-1 files as having a nonzero pad and the
// magic still routes them here, where the minor dispatch applies.
const binaryMagic = succinct.SnapshotMagic // "SLMG"

const (
	binaryVersion = 1
	packedVersion = succinct.SnapshotVersion
)

type snapshotHeader struct {
	version  uint8
	minor    uint16
	directed bool
	weighted bool
	permuted bool // v2 only: a vertex permutation section follows the directory
	n, m     int
}

func (h snapshotHeader) flags() uint8 {
	var f uint8
	if h.directed {
		f |= 1
	}
	if h.weighted {
		f |= 2
	}
	if h.permuted {
		f |= 4
	}
	return f
}

func writeHeader(bw *bufio.Writer, h snapshotHeader) error {
	for _, v := range []any{binaryMagic, h.version, h.flags(), h.minor, uint32(h.n), uint32(h.m)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	return nil
}

func readHeader(br *bufio.Reader) (snapshotHeader, error) {
	var (
		magic uint32
		flags uint8
		n, m  uint32
		h     snapshotHeader
	)
	for _, p := range []any{&magic, &h.version, &flags, &h.minor, &n, &m} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return h, err
		}
	}
	if magic != binaryMagic {
		return h, fmt.Errorf("graphio: bad magic %#x", magic)
	}
	h.directed = flags&1 != 0
	h.weighted = flags&2 != 0
	h.permuted = flags&4 != 0
	h.n, h.m = int(n), int(m)
	return h, nil
}

// encodeHeader is writeHeader into a fixed buffer — the servable read path
// re-synthesizes the 16 header bytes it already consumed so the image it
// hands to succinct.AttachServable is byte-complete.
func encodeHeader(h snapshotHeader) [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint32(b[0:], binaryMagic)
	b[4] = h.version
	b[5] = h.flags()
	binary.LittleEndian.PutUint16(b[6:], h.minor)
	binary.LittleEndian.PutUint32(b[8:], uint32(h.n))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.m))
	return b
}

// WriteBinary writes the v1 binary snapshot of g — the fixed-width
// canonical edge list — and returns the number of bytes written. The size
// is 16 + m*(8 or 16) bytes; the evaluation uses it as the uncompressed
// on-disk footprint a packed snapshot is compared against.
func WriteBinary(w io.Writer, g *graph.Graph) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	h := snapshotHeader{version: binaryVersion, directed: g.Directed(), weighted: g.Weighted(), n: g.N(), m: g.M()}
	if err := writeHeader(bw, h); err != nil {
		return 0, err
	}
	var buf [16]byte
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		rec := buf[:8]
		if h.weighted {
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(g.EdgeWeight(graph.EdgeID(e))))
			rec = buf[:16]
		}
		if _, err := bw.Write(rec); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// ReadBinary reads a v1 snapshot written by WriteBinary.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	limit := sourceSize(r)
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if h.version != binaryVersion {
		if h.version == packedVersion {
			return nil, fmt.Errorf("graphio: version 2 (packed) snapshot; use ReadPacked or Read")
		}
		return nil, fmt.Errorf("graphio: unsupported version %d", h.version)
	}
	return readBinaryBody(br, h, limit)
}

// sourceSize reports the total size in bytes of a reader's underlying
// source when it is knowable without disturbing the read position — a
// bytes.Reader-style Size or a regular file's Stat — and -1 otherwise. Body
// readers use it to bound header-declared section sizes before allocating:
// a corrupt header cannot demand more memory than the source holds.
func sourceSize(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Size() int64 }:
		return s.Size()
	case interface{ Stat() (os.FileInfo, error) }:
		if st, err := s.Stat(); err == nil && st.Mode().IsRegular() {
			return st.Size()
		}
	}
	return -1
}

// checkBodySize rejects a snapshot whose header-declared sections need more
// bytes than the source can possibly supply. limit < 0 means the source
// size is unknowable (a pipe, a network stream) and the check is skipped —
// the plausibility bounds still apply there.
func checkBodySize(need, limit int64) error {
	if limit >= 0 && need > limit {
		return fmt.Errorf("graphio: snapshot header declares %d bytes of sections but the source holds only %d", need, limit)
	}
	return nil
}

// checkVertexCount rejects a snapshot whose declared vertex count is wildly
// out of proportion to the source size. Vertices are nearly free on disk
// (an empty adjacency list costs at most a few bytes in any version) but
// cost real memory to materialize, so a corrupt 16-byte header must not be
// able to demand a multi-gigabyte CSR. The slack — 4M vertices regardless
// of size, plus 4096 per source byte — keeps every legitimate sparse graph
// loadable while capping the damage a flipped header byte can do.
func checkVertexCount(n int, limit int64) error {
	if limit >= 0 && int64(n) > 4<<20+limit*4096 {
		return fmt.Errorf("graphio: snapshot declares %d vertices from a %d-byte source", n, limit)
	}
	return nil
}

func readBinaryBody(br *bufio.Reader, h snapshotHeader, limit int64) (*graph.Graph, error) {
	if err := checkVertexCount(h.n, limit); err != nil {
		return nil, err
	}
	recSize := int64(8)
	if h.weighted {
		recSize = 16
	}
	if err := checkBodySize(16+int64(h.m)*recSize, limit); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, h.m)
	rec := make([]byte, recSize)
	for i := range edges {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, err
		}
		w := 1.0
		if h.weighted {
			w = math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		}
		edges[i] = graph.Edge{
			U: graph.NodeID(binary.LittleEndian.Uint32(rec[0:])),
			V: graph.NodeID(binary.LittleEndian.Uint32(rec[4:])),
			W: w,
		}
	}
	// WriteBinary emits the canonical edge list, which is sorted and
	// deduplicated by construction — load it through the sort-free CSR
	// path. Foreign snapshots that violate canonical order fall back to
	// the full builder.
	if g, err := graph.FromCanonicalEdges(h.n, h.directed, h.weighted, edges); err == nil {
		return g, nil
	}
	b := graph.NewBuilder(h.n, h.directed)
	b.AddEdges(edges)
	if h.weighted {
		b.SetWeighted()
	}
	return b.Build()
}

// WritePacked writes the v2 packed snapshot of g — the succinct gap-encoded
// canonical lists with their block directory (see internal/succinct) — and
// returns the number of bytes written. A packed snapshot of a sparse graph
// is typically 3-4x smaller than WriteBinary's.
//
// Layout after the shared 16-byte header: blockVertices u32, numBlocks u32,
// payloadLen u64, blockOff (numBlocks+1)×u64, edgeStart (numBlocks+1)×u64,
// then — when flag bit 4 is set — the pack-time vertex permutation as n
// little-endian i32, then the payload bytes, then m float64 canonical
// weights (in the stored ID space) when weighted.
func WritePacked(w io.Writer, g *graph.Graph) (int64, error) {
	return WritePackedOrder(w, g, succinct.OrderNone)
}

// WritePackedOrder is WritePacked under a locality ordering: the graph is
// relabeled by the order's gap-minimizing permutation before encoding
// (usually shrinking the payload) and the permutation is stored in the
// snapshot, so reading restores the original IDs losslessly. OrderNone is
// identical to WritePacked — no permutation section is written, keeping the
// format backward compatible.
func WritePackedOrder(w io.Writer, g *graph.Graph, order succinct.Order) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	s, weights := succinct.EncodeStoredOrder(g, order, 0)
	h := snapshotHeader{
		version: packedVersion, directed: g.Directed(), weighted: g.Weighted(),
		permuted: s.Perm != nil, n: g.N(), m: g.M(),
	}
	if err := writeHeader(bw, h); err != nil {
		return 0, err
	}
	for _, v := range []any{uint32(s.BlockVertices), uint32(s.NumBlocks()), uint64(len(s.Payload))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return 0, err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, s.BlockOff); err != nil {
		return 0, err
	}
	if err := binary.Write(bw, binary.LittleEndian, s.EdgeStart); err != nil {
		return 0, err
	}
	if s.Perm != nil {
		if err := binary.Write(bw, binary.LittleEndian, s.Perm); err != nil {
			return 0, err
		}
	}
	if _, err := bw.Write(s.Payload); err != nil {
		return 0, err
	}
	if h.weighted {
		if err := binary.Write(bw, binary.LittleEndian, weights); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// ReadPacked reads a v2 snapshot of either minor — the minor-0 compact wire
// form written by WritePacked (blocks decode in parallel) or the minor-1
// servable image written by succinct.WriteServable (attached, verified and
// unpacked; map it instead with succinct.OpenPacked to serve it without
// decoding). The round trip is lossless: the result is graph.Equal to the
// written graph.
func ReadPacked(r io.Reader) (*graph.Graph, error) {
	limit := sourceSize(r)
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	if h.version != packedVersion {
		if h.version == binaryVersion {
			return nil, fmt.Errorf("graphio: version 1 (binary) snapshot; use ReadBinary or Read")
		}
		return nil, fmt.Errorf("graphio: unsupported version %d", h.version)
	}
	return readPackedBody(br, h, limit)
}

// readServableBody loads a v2.1 servable image through the heap: the 16
// header bytes already consumed are re-synthesized in front of the rest of
// the stream and the whole image is attached, verified (the source is
// untrusted — attach alone does not decode the payload) and unpacked.
func readServableBody(br *bufio.Reader, h snapshotHeader, limit int64) (*graph.Graph, error) {
	if err := checkVertexCount(h.n, limit); err != nil {
		return nil, err
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	hdr := encodeHeader(h)
	img := make([]byte, 0, len(hdr)+len(rest))
	img = append(img, hdr[:]...)
	img = append(img, rest...)
	pg, err := succinct.AttachServable(img)
	if err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	if err := pg.Verify(0); err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	return pg.Unpack(0), nil
}

func readPackedBody(br *bufio.Reader, h snapshotHeader, limit int64) (*graph.Graph, error) {
	switch h.minor {
	case 0:
		// The compact wire form: decoded below.
	case succinct.ServableMinor:
		return readServableBody(br, h, limit)
	default:
		return nil, fmt.Errorf("graphio: unsupported packed minor version %d", h.minor)
	}
	if err := checkVertexCount(h.n, limit); err != nil {
		return nil, err
	}
	var (
		blockVertices, numBlocks uint32
		payloadLen               uint64
	)
	for _, p := range []any{&blockVertices, &numBlocks, &payloadLen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	const maxBlockVertices = 1 << 20
	if blockVertices == 0 || blockVertices > maxBlockVertices ||
		uint64(numBlocks)*uint64(blockVertices) >= uint64(h.n)+uint64(blockVertices) {
		return nil, fmt.Errorf("graphio: implausible packed directory: %d blocks of %d vertices",
			numBlocks, blockVertices)
	}
	// Beyond the codec's bound a payload can only come from corruption —
	// reject it before allocating.
	if payloadLen > uint64(succinct.MaxPayloadBytes(int64(h.n), int64(h.m))) {
		return nil, fmt.Errorf("graphio: implausible payload length %d for n=%d m=%d",
			payloadLen, h.n, h.m)
	}
	nb := int(numBlocks) // int arithmetic: numBlocks+1 must not wrap
	// Bound every header-declared section against the source size before a
	// single byte of it is allocated: 32 bytes consumed so far, two
	// (nb+1)-entry u64 directories, the optional n×i32 permutation, the
	// payload, the optional m×f64 weights.
	need := int64(32) + int64(nb+1)*16 + int64(payloadLen)
	if h.permuted {
		need += int64(h.n) * 4
	}
	if h.weighted {
		need += int64(h.m) * 8
	}
	if err := checkBodySize(need, limit); err != nil {
		return nil, err
	}
	s := &succinct.Sections{
		BlockVertices: int(blockVertices),
		BlockOff:      make([]uint64, nb+1),
		EdgeStart:     make([]uint64, nb+1),
		Payload:       make([]byte, payloadLen),
	}
	if err := binary.Read(br, binary.LittleEndian, s.BlockOff); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, s.EdgeStart); err != nil {
		return nil, err
	}
	if h.permuted {
		s.Perm = make([]graph.NodeID, h.n)
		if err := binary.Read(br, binary.LittleEndian, s.Perm); err != nil {
			return nil, err
		}
	}
	if _, err := io.ReadFull(br, s.Payload); err != nil {
		return nil, err
	}
	var weights []float64
	if h.weighted {
		weights = make([]float64, h.m)
		if err := binary.Read(br, binary.LittleEndian, weights); err != nil {
			return nil, err
		}
	}
	return succinct.DecodeStored(h.n, h.m, h.directed, h.weighted, s, weights, 0)
}

// Read reads a binary snapshot of any version, dispatching on the header
// tag: v1 (WriteBinary), v2.0 (WritePacked) and v2.1 (succinct.WriteServable)
// all load through it.
func Read(r io.Reader) (*graph.Graph, error) {
	limit := sourceSize(r)
	br := bufio.NewReader(r)
	h, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch h.version {
	case binaryVersion:
		return readBinaryBody(br, h, limit)
	case packedVersion:
		return readPackedBody(br, h, limit)
	default:
		return nil, fmt.Errorf("graphio: unsupported version %d", h.version)
	}
}

// SniffSnapshot reports whether a file beginning with prefix (at least 4
// bytes of it) is a binary snapshot of either version, letting callers
// route a path of unknown format between Read and ReadEdgeList.
func SniffSnapshot(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == binaryMagic
}

// ReadAuto reads a graph of unknown format: binary snapshots (v1 or v2) are
// recognized by their magic and loaded through Read; anything else parses as
// a text edge list. The directed flag only applies to the edge-list case —
// snapshots carry their own directedness. This is the sniffing shared by the
// slimgraph CLI's -input and the server's graph uploads.
func ReadAuto(r io.Reader, directed bool) (*graph.Graph, error) {
	limit := sourceSize(r) // before wrapping: the bufio.Reader hides it
	br := bufio.NewReader(r)
	if prefix, err := br.Peek(4); err == nil && SniffSnapshot(prefix) {
		h, err := readHeader(br)
		if err != nil {
			return nil, err
		}
		switch h.version {
		case binaryVersion:
			return readBinaryBody(br, h, limit)
		case packedVersion:
			return readPackedBody(br, h, limit)
		default:
			return nil, fmt.Errorf("graphio: unsupported version %d", h.version)
		}
	}
	return ReadEdgeList(br, directed)
}

// BinarySize returns the v1 snapshot size in bytes without retaining any
// output: the actual WriteBinary path runs against a discarding writer, so
// the reported size can never drift from what WriteBinary produces.
func BinarySize(g *graph.Graph) int64 {
	n, err := WriteBinary(io.Discard, g)
	if err != nil {
		panic(fmt.Sprintf("graphio: BinarySize: %v", err)) // io.Discard cannot fail
	}
	return n
}

// PackedSize is BinarySize for the v2 packed snapshot: it runs WritePacked
// against a discarding writer and returns the byte count.
func PackedSize(g *graph.Graph) int64 {
	n, err := WritePacked(io.Discard, g)
	if err != nil {
		panic(fmt.Sprintf("graphio: PackedSize: %v", err))
	}
	return n
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
