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
			if err == nil {
				err = checkWeight(w)
			}
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

// Binary snapshot formats share the 16-byte header of
// succinct.SnapshotHeader. Version 1 ("binary") is the fixed-width canonical
// edge list; version 2 ("packed") is the succinct gap-encoded form, whose
// minor succinct.CompactMinor (v2.2) is the compact wire form decoded here
// and whose minor succinct.ServableMinor (v2.3) is the 8-aligned servable
// image of internal/succinct that memory-maps without a decode pass. Minors
// 0 and 1 were the same two forms with LEB128 lists; they are refused, not
// read, and so is a v2 header with flag 4, a stored vertex permutation.
// Little-endian throughout.
const (
	binaryVersion = 1
	packedVersion = succinct.SnapshotVersion
)

// WriteBinary writes the v1 binary snapshot of g — the fixed-width
// canonical edge list — and returns the number of bytes written. The size
// is 16 + m*(8 or 16) bytes; the evaluation uses it as the uncompressed
// on-disk footprint a packed snapshot is compared against.
func WriteBinary(w io.Writer, g *graph.Graph) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	h := succinct.SnapshotHeader{Version: binaryVersion, Directed: g.Directed(), Weighted: g.Weighted(), N: g.N(), M: g.M()}
	if _, err := bw.Write(h.Append(nil)); err != nil {
		return 0, err
	}
	var buf [16]byte
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		binary.LittleEndian.PutUint32(buf[0:], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		rec := buf[:8]
		if h.Weighted {
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
	return readSnapshot(bufio.NewReader(r), sourceSize(r), binaryVersion)
}

// readSnapshot is the one reader under Read, ReadBinary, ReadPacked and
// ReadAuto. It peeks the shared header, refuses a known version other than
// want (0 accepts both) by naming the reader that takes it, refuses a v2
// header that declares a stored vertex permutation, and dispatches
// on version and minor: the two decoded forms read their bodies from behind
// the header, a servable image attaches over its complete bytes and so
// keeps the header in front. Whatever the form, a graph with a non-finite
// weight is refused, naming the edge. limit is sourceSize of the underlying
// source.
func readSnapshot(br *bufio.Reader, limit int64, want uint8) (*graph.Graph, error) {
	prefix, err := br.Peek(succinct.SnapshotHeaderSize)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	h, ok := succinct.ParseSnapshotHeader(prefix)
	if !ok {
		return nil, fmt.Errorf("graphio: bad magic %#x", binary.LittleEndian.Uint32(prefix))
	}
	if want != 0 && h.Version != want {
		switch h.Version {
		case binaryVersion:
			return nil, fmt.Errorf("graphio: version 1 (binary) snapshot; use ReadBinary or Read")
		case packedVersion:
			return nil, fmt.Errorf("graphio: version 2 (packed) snapshot; use ReadPacked or Read")
		}
	}
	if err := h.CheckUnpermuted(); err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	servable := h.Version == packedVersion && h.Minor == succinct.ServableMinor
	if !servable {
		_, _ = br.Discard(succinct.SnapshotHeaderSize) // peeked above: cannot fail
	}
	var g *graph.Graph
	switch {
	case h.Version == binaryVersion:
		g, err = readBinaryBody(br, h, limit)
	case h.Version != packedVersion:
		return nil, fmt.Errorf("graphio: unsupported version %d", h.Version)
	case h.Minor == succinct.CompactMinor:
		g, err = readPackedBody(br, h, limit)
	case servable:
		g, err = readServableBody(br, h, limit)
	case h.Minor == 1: // the retired servable image
		return nil, fmt.Errorf("graphio: %v", h.CheckMinor(succinct.ServableMinor))
	default:
		return nil, fmt.Errorf("graphio: %v", h.CheckMinor(succinct.CompactMinor))
	}
	if err != nil {
		return nil, err
	}
	if g.Weighted() {
		for e := range graph.EdgeID(g.M()) {
			if err := checkWeight(g.EdgeWeight(e)); err != nil {
				return nil, fmt.Errorf("graphio: edge %d: %v", e, err)
			}
		}
	}
	return g, nil
}

// checkWeight refuses a weight no reader accepts: NaN, +Inf or -Inf, which
// the weighted kernels and every JSON answer would carry through.
func checkWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("weight %v is not finite", w)
	}
	return nil
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

func readBinaryBody(br *bufio.Reader, h succinct.SnapshotHeader, limit int64) (*graph.Graph, error) {
	if err := checkVertexCount(h.N, limit); err != nil {
		return nil, err
	}
	recSize := int64(8)
	if h.Weighted {
		recSize = 16
	}
	if err := checkBodySize(16+int64(h.M)*recSize, limit); err != nil {
		return nil, err
	}
	edges := make([]graph.Edge, h.M)
	rec := make([]byte, recSize)
	for i := range edges {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, err
		}
		w := 1.0
		if h.Weighted {
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
	if g, err := graph.FromCanonicalEdges(h.N, h.Directed, h.Weighted, edges, 0); err == nil {
		return g, nil
	}
	b := graph.NewBuilder(h.N, h.Directed)
	b.AddEdges(edges)
	if h.Weighted {
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
// the payload bytes, then m float64 canonical weights when weighted. Vertex
// IDs are g's own: a locality order is a relabel of g before the write.
func WritePacked(w io.Writer, g *graph.Graph) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	s := succinct.EncodeStored(g, 0)
	h := succinct.SnapshotHeader{
		Version: packedVersion, Minor: succinct.CompactMinor,
		Directed: g.Directed(), Weighted: g.Weighted(), N: g.N(), M: g.M(),
	}
	if _, err := bw.Write(h.Append(nil)); err != nil {
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
	if _, err := bw.Write(s.Payload); err != nil {
		return 0, err
	}
	if h.Weighted {
		var buf [8]byte
		for e := 0; e < h.M; e++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(g.EdgeWeight(graph.EdgeID(e))))
			if _, err := bw.Write(buf[:]); err != nil {
				return 0, err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// ReadPacked reads a v2 snapshot of either minor — the compact wire form
// written by WritePacked (blocks decode in parallel) or the servable image
// written by succinct.WriteServable (attached, verified and
// unpacked; map it instead with succinct.OpenPacked to serve it without
// decoding). The round trip is lossless: the result is graph.Equal to the
// written graph.
func ReadPacked(r io.Reader) (*graph.Graph, error) {
	return readSnapshot(bufio.NewReader(r), sourceSize(r), packedVersion)
}

// readServableBody loads a servable image through the heap: the whole
// image, header included, is read, attached, verified (the source is
// untrusted — attach alone does not decode the payload) and unpacked.
func readServableBody(br *bufio.Reader, h succinct.SnapshotHeader, limit int64) (*graph.Graph, error) {
	if err := checkVertexCount(h.N, limit); err != nil {
		return nil, err
	}
	img, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	pg, err := succinct.AttachServable(img)
	if err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	if err := pg.Verify(0); err != nil {
		return nil, fmt.Errorf("graphio: %v", err)
	}
	return pg.Unpack(0), nil
}

// readPackedBody decodes the compact wire form.
func readPackedBody(br *bufio.Reader, h succinct.SnapshotHeader, limit int64) (*graph.Graph, error) {
	if err := checkVertexCount(h.N, limit); err != nil {
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
		uint64(numBlocks)*uint64(blockVertices) >= uint64(h.N)+uint64(blockVertices) {
		return nil, fmt.Errorf("graphio: implausible packed directory: %d blocks of %d vertices",
			numBlocks, blockVertices)
	}
	// Beyond the codec's bound a payload can only come from corruption —
	// reject it before allocating.
	if payloadLen > uint64(succinct.MaxPayloadBytes(int64(h.N), int64(h.M))) {
		return nil, fmt.Errorf("graphio: implausible payload length %d for n=%d m=%d",
			payloadLen, h.N, h.M)
	}
	nb := int(numBlocks) // int arithmetic: numBlocks+1 must not wrap
	// Bound every header-declared section against the source size before a
	// single byte of it is allocated: 32 bytes consumed so far, two
	// (nb+1)-entry u64 directories, the payload, the optional m×f64 weights.
	need := int64(32) + int64(nb+1)*16 + int64(payloadLen)
	if h.Weighted {
		need += int64(h.M) * 8
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
	if _, err := io.ReadFull(br, s.Payload); err != nil {
		return nil, err
	}
	var weights []float64
	if h.Weighted {
		weights = make([]float64, h.M)
		if err := binary.Read(br, binary.LittleEndian, weights); err != nil {
			return nil, err
		}
	}
	return succinct.DecodeStored(h.N, h.M, h.Directed, h.Weighted, s, weights, 0)
}

// Read reads a binary snapshot of any version, dispatching on the header
// tag: v1 (WriteBinary), v2.2 (WritePacked) and v2.3 (succinct.WriteServable)
// all load through it.
func Read(r io.Reader) (*graph.Graph, error) {
	return readSnapshot(bufio.NewReader(r), sourceSize(r), 0)
}

// SniffSnapshot reports whether a file beginning with prefix (at least 4
// bytes of it) is a binary snapshot of either version, letting callers
// route a path of unknown format between Read and ReadEdgeList.
func SniffSnapshot(prefix []byte) bool {
	return len(prefix) >= 4 && binary.LittleEndian.Uint32(prefix) == succinct.SnapshotMagic
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
		return readSnapshot(br, limit, 0)
	}
	return ReadEdgeList(br, directed)
}

// BinarySize returns the v1 snapshot size in bytes of g in any
// representation: the header plus one fixed-width record per canonical edge
// (8 bytes, 16 when weighted) — what WriteBinary writes, which the round-trip
// test checks byte for byte.
func BinarySize(g graph.AdjacencyEdges) int64 {
	record := int64(8)
	if g.Weighted() {
		record = 16
	}
	return succinct.SnapshotHeaderSize + int64(g.M())*record
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
