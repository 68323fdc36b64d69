package succinct

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"slimgraph/internal/graph"
)

// This file defines the servable snapshot image: graphio format version 2,
// minor ServableMinor. Where the compact packed snapshot (CompactMinor)
// stores only the canonical direction and is decoded into a CSR at load
// time, the servable image stores every section a PackedGraph serves from —
// the full gap-encoded adjacency payload(s), the two-level offset directory
// including the bit-packed per-vertex relative offsets, the canonical edge
// starts and the weights — with every section padded to an 8-byte boundary.
// A little-endian host attaches a PackedGraph directly over the image bytes:
// no decode pass, no heap copy of any section. That is what lets slimgraphd
// mmap a snapshot and answer its first packed query in milliseconds after a
// restart.

// servableHeaderSize is the fixed prefix before the first section. The
// first SnapshotHeaderSize bytes are the shared snapshot header (header.go);
// the rest are servable-specific fixed-width fields padded so sections start
// 8-aligned.
const servableHeaderSize = 64

// hostLittleEndian reports whether native integer loads read the image's
// little-endian sections correctly — the precondition for the zero-copy
// attach. Big-endian hosts fall back to a copying decode.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bitWordCount mirrors newBitArray's allocation: the number of uint64 words
// backing an n-entry array of the given width, including the one padding
// word that lets get read a second word unconditionally.
func bitWordCount(n int, width uint) int {
	if width == 0 {
		return 0
	}
	return int((uint64(n)*uint64(width)+63)/64) + 1
}

// align8 rounds an offset up to the next multiple of 8.
func align8(off int64) int64 { return (off + 7) &^ 7 }

// servableLayout is the resolved section table of one image: byte offsets
// from the start of the image, already aligned.
type servableLayout struct {
	n, m          int
	directed      bool
	weighted      bool
	blockVertices int
	numBlocks     int
	arcs          int64
	payloadLen    int64
	inPayloadLen  int64
	relWidth      uint
	inRelWidth    uint

	blockOff   int64 // (numBlocks+1) u64
	edgeStart  int64 // (numBlocks+1) u64
	rel        int64 // bitWordCount(n, relWidth) u64
	inBlockOff int64 // directed: (numBlocks+1) u64
	inRel      int64 // directed: bitWordCount(n, inRelWidth) u64
	payload    int64 // payloadLen bytes
	inPayload  int64 // directed: inPayloadLen bytes
	weights    int64 // weighted: m f64
	total      int64
}

// resolve fills the section offsets from the fixed-width fields.
func (l *servableLayout) resolve() {
	dir := int64(l.numBlocks+1) * 8
	off := int64(servableHeaderSize)
	l.blockOff = off
	off += dir
	l.edgeStart = off
	off += dir
	l.rel = off
	off += int64(bitWordCount(l.n, l.relWidth)) * 8
	if l.directed {
		l.inBlockOff = off
		off += dir
		l.inRel = off
		off += int64(bitWordCount(l.n, l.inRelWidth)) * 8
	}
	l.payload = off
	off = align8(off + l.payloadLen)
	if l.directed {
		l.inPayload = off
		off = align8(off + l.inPayloadLen)
	}
	if l.weighted {
		l.weights = off
		off += int64(l.m) * 8
	}
	l.total = off
}

// layoutOf derives the image layout of pg.
func layoutOf(pg *PackedGraph) servableLayout {
	l := servableLayout{
		n: pg.n, m: pg.m,
		directed: pg.directed, weighted: pg.weighted,
		blockVertices: 1 << pg.shift,
		numBlocks:     numBlocksFor(pg.n, pg.shift),
		arcs:          pg.arcs,
		payloadLen:    int64(len(pg.payload)),
		inPayloadLen:  int64(len(pg.inPayload)),
		relWidth:      pg.rel.width,
		inRelWidth:    pg.inRel.width,
	}
	l.resolve()
	return l
}

// ServableSize returns the exact byte size of pg's servable image.
func ServableSize(pg *PackedGraph) int64 { return layoutOf(pg).total }

// AppendServable appends pg's servable image to dst and returns the grown
// slice. The bytes are deterministic: a pure function of the packed graph.
func AppendServable(dst []byte, pg *PackedGraph) []byte {
	l := layoutOf(pg)
	base := int64(len(dst))
	dst = append(dst, make([]byte, l.total)...)
	img := dst[base:]

	SnapshotHeader{
		Version: SnapshotVersion, Minor: ServableMinor,
		Directed: l.directed, Weighted: l.weighted,
		N: l.n, M: l.m,
	}.Append(img[:0])
	le := binary.LittleEndian
	le.PutUint32(img[16:], uint32(l.blockVertices))
	le.PutUint32(img[20:], uint32(l.numBlocks))
	le.PutUint64(img[24:], uint64(l.arcs))
	le.PutUint64(img[32:], uint64(l.payloadLen))
	le.PutUint64(img[40:], uint64(l.inPayloadLen))
	img[48] = uint8(l.relWidth)
	img[49] = uint8(l.inRelWidth)

	putU64s := func(off int64, vs []uint64) {
		for i, v := range vs {
			le.PutUint64(img[off+int64(i)*8:], v)
		}
	}
	putU64s(l.blockOff, pg.blockOff)
	for i, v := range pg.edgeStart {
		le.PutUint64(img[l.edgeStart+int64(i)*8:], uint64(v))
	}
	putU64s(l.rel, pg.rel.words)
	if l.directed {
		putU64s(l.inBlockOff, pg.inBlockOff)
		putU64s(l.inRel, pg.inRel.words)
	}
	copy(img[l.payload:], pg.payload)
	if l.directed {
		copy(img[l.inPayload:], pg.inPayload)
	}
	if l.weighted {
		for i, w := range pg.weights {
			le.PutUint64(img[l.weights+int64(i)*8:], math.Float64bits(w))
		}
	}
	return dst
}

// WriteServable writes pg's servable image to w and returns the byte count.
func WriteServable(w io.Writer, pg *PackedGraph) (int64, error) {
	img := AppendServable(nil, pg)
	n, err := w.Write(img)
	return int64(n), err
}

// IsServable reports whether prefix (at least 8 bytes) begins a servable
// image: the snapshot magic with SnapshotVersion and ServableMinor.
func IsServable(prefix []byte) bool {
	if len(prefix) < 8 {
		return false
	}
	// Magic, version and minor sit in the first 8 bytes; n and m read as 0
	// from a shorter prefix and are not looked at.
	var hdr [SnapshotHeaderSize]byte
	copy(hdr[:], prefix)
	h, ok := ParseSnapshotHeader(hdr[:])
	return ok && h.Version == SnapshotVersion && h.Minor == ServableMinor
}

// ServableInfo is the cheap-to-read identity of a servable image: what
// its header says, without touching the sections.
type ServableInfo struct {
	N, M     int
	Directed bool
	Weighted bool
	// Bytes is the exact image size the header implies; a file of any other
	// size is corrupt.
	Bytes int64
}

// parseServableHeader validates the fixed prefix and returns the resolved
// layout. data may be just the header (for StatServable) or the full image.
func parseServableHeader(data []byte) (servableLayout, error) {
	var l servableLayout
	if len(data) < servableHeaderSize {
		return l, fmt.Errorf("succinct: servable image: %d bytes is shorter than the %d-byte header", len(data), servableHeaderSize)
	}
	h, ok := ParseSnapshotHeader(data)
	if !ok || h.Version != SnapshotVersion {
		return l, fmt.Errorf("succinct: not a servable (v%d.%d) snapshot image", SnapshotVersion, ServableMinor)
	}
	if err := h.CheckMinor(ServableMinor); err != nil {
		return l, fmt.Errorf("succinct: servable image: %v", err)
	}
	if err := h.CheckUnpermuted(); err != nil {
		return l, fmt.Errorf("succinct: servable image: %v", err)
	}
	l.directed, l.weighted = h.Directed, h.Weighted
	l.n, l.m = h.N, h.M
	le := binary.LittleEndian
	l.blockVertices = int(le.Uint32(data[16:]))
	l.numBlocks = int(le.Uint32(data[20:]))
	l.arcs = int64(le.Uint64(data[24:]))
	l.payloadLen = int64(le.Uint64(data[32:]))
	l.inPayloadLen = int64(le.Uint64(data[40:]))
	l.relWidth = uint(data[48])
	l.inRelWidth = uint(data[49])

	const maxBlockVertices = 1 << 20
	shift := shiftFor(l.blockVertices)
	if l.blockVertices <= 0 || l.blockVertices > maxBlockVertices || 1<<shift != l.blockVertices {
		return l, fmt.Errorf("succinct: servable image: block size %d is not a power of two in [1, %d]", l.blockVertices, maxBlockVertices)
	}
	if l.numBlocks != numBlocksFor(l.n, shift) {
		return l, fmt.Errorf("succinct: servable image: %d blocks of %d vertices do not cover n=%d", l.numBlocks, l.blockVertices, l.n)
	}
	wantArcs := int64(l.m)
	if !l.directed {
		wantArcs = 2 * int64(l.m)
	}
	if l.arcs != wantArcs {
		return l, fmt.Errorf("succinct: servable image: %d arcs for m=%d (want %d)", l.arcs, l.m, wantArcs)
	}
	if l.relWidth > 64 || l.inRelWidth > 64 {
		return l, fmt.Errorf("succinct: servable image: relative-offset width out of range")
	}
	if !l.directed && l.inPayloadLen != 0 {
		return l, fmt.Errorf("succinct: servable image: undirected graph with an in-payload section")
	}
	// Beyond the codec's bound a payload can only be corruption — reject
	// before trusting any offset.
	if l.payloadLen < 0 || l.payloadLen > MaxPayloadBytes(int64(l.n), l.arcs) {
		return l, fmt.Errorf("succinct: servable image: implausible payload length %d for n=%d arcs=%d", l.payloadLen, l.n, l.arcs)
	}
	if l.inPayloadLen < 0 || l.inPayloadLen > MaxPayloadBytes(int64(l.n), int64(l.m)) {
		return l, fmt.Errorf("succinct: servable image: implausible in-payload length %d", l.inPayloadLen)
	}
	l.resolve()
	return l, nil
}

// Info extracts a ServableInfo from an image prefix of at least
// servableHeaderSize bytes without reading any section.
func servableInfo(prefix []byte) (ServableInfo, error) {
	l, err := parseServableHeader(prefix)
	if err != nil {
		return ServableInfo{}, err
	}
	return ServableInfo{
		N: l.n, M: l.m, Directed: l.directed, Weighted: l.weighted,
		Bytes: l.total,
	}, nil
}

// u64view returns count uint64s at off, aliasing data on a little-endian
// host and copying otherwise. off must be 8-aligned (the layout guarantees
// it); the caller has already bounds-checked the section.
func u64view(data []byte, off, count int64, zeroCopy bool) []uint64 {
	if count == 0 {
		return nil
	}
	if zeroCopy {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&data[off])), count)
	}
	out := make([]uint64, count)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[off+int64(i)*8:])
	}
	return out
}

// AttachServable builds a PackedGraph over a servable image. On a
// little-endian host every section — payload bytes, offset directories, the
// bit-packed relative offsets, weights — aliases data directly: no decode
// pass runs and no section is copied to the heap. The caller must keep data
// alive and unmodified for the life of the returned graph; Mapped manages
// that for mmap-backed images.
//
// Corrupt structure (bad magic, a refused minor or flag, sections out of
// bounds, non-monotonic directories) returns an error rather than
// panicking. Payload bytes are NOT decoded here — Verify runs the full
// check when the image comes from an untrusted source.
func AttachServable(data []byte) (*PackedGraph, error) {
	l, err := parseServableHeader(data)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) != l.total {
		return nil, fmt.Errorf("succinct: servable image: %d bytes, header implies %d", len(data), l.total)
	}
	zc := hostLittleEndian
	nb := l.numBlocks
	pg := &PackedGraph{
		n: l.n, m: l.m,
		directed: l.directed, weighted: l.weighted,
		shift: shiftFor(l.blockVertices),
		arcs:  l.arcs,
	}
	pg.blockOff = u64view(data, l.blockOff, int64(nb)+1, zc)
	edgeStart := u64view(data, l.edgeStart, int64(nb)+1, zc)
	if zc {
		pg.edgeStart = unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(edgeStart))), len(edgeStart))
	} else {
		pg.edgeStart = make([]int64, len(edgeStart))
		for i, v := range edgeStart {
			pg.edgeStart[i] = int64(v)
		}
	}
	pg.rel = attachBitArray(data, l.rel, l.n, l.relWidth, zc)
	if l.directed {
		pg.inBlockOff = u64view(data, l.inBlockOff, int64(nb)+1, zc)
		pg.inRel = attachBitArray(data, l.inRel, l.n, l.inRelWidth, zc)
	}
	pg.payload = data[l.payload : l.payload+l.payloadLen : l.payload+l.payloadLen]
	if l.directed {
		pg.inPayload = data[l.inPayload : l.inPayload+l.inPayloadLen : l.inPayload+l.inPayloadLen]
	}
	if l.weighted {
		if zc {
			if l.m > 0 {
				pg.weights = unsafe.Slice((*float64)(unsafe.Pointer(&data[l.weights])), l.m)
			}
		} else {
			pg.weights = make([]float64, l.m)
			for i := range pg.weights {
				pg.weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[l.weights+int64(i)*8:]))
			}
		}
	}
	if err := pg.checkDirectories(); err != nil {
		return nil, err
	}
	return pg, nil
}

// attachBitArray reconstructs a bitArray over the image words.
func attachBitArray(data []byte, off int64, n int, width uint, zc bool) bitArray {
	a := bitArray{width: width, n: n}
	if width == 0 {
		return a
	}
	a.mask = (uint64(1) << width) - 1
	if width == 64 {
		a.mask = ^uint64(0)
	}
	a.words = u64view(data, off, int64(bitWordCount(n, width)), zc)
	return a
}

// checkDirectory reports whether dir is a directory of numBlocks blocks over
// [0, end]: one entry per block boundary, from 0, never decreasing, to end.
func checkDirectory[T int64 | uint64](name string, dir []T, numBlocks int, end T) error {
	if len(dir) != numBlocks+1 || dir[0] != 0 || dir[numBlocks] != end {
		return fmt.Errorf("succinct: %s directory: %d entries do not span %d blocks over [0, %d]", name, len(dir), numBlocks, end)
	}
	for b := 1; b <= numBlocks; b++ {
		if dir[b] < dir[b-1] {
			return fmt.Errorf("succinct: %s directory not monotonic at block %d", name, b-1)
		}
	}
	return nil
}

// checkDirectories validates the cheap structural invariants of an attached
// graph: monotonic directories that span the payloads and the edge count.
// It never touches a payload, so attach stays free of decode work.
func (pg *PackedGraph) checkDirectories() error {
	numBlocks := numBlocksFor(pg.n, pg.shift)
	if err := checkDirectory("payload", pg.blockOff, numBlocks, uint64(len(pg.payload))); err != nil {
		return err
	}
	if pg.directed {
		if err := checkDirectory("in-payload", pg.inBlockOff, numBlocks, uint64(len(pg.inPayload))); err != nil {
			return err
		}
	}
	return checkDirectory("edge-start", pg.edgeStart, numBlocks, int64(pg.m))
}

// Verify runs the full payload check an attach skips: every adjacency list
// must decode cleanly (no truncated or overlong varints), stay strictly
// increasing inside [0, n), agree with the per-vertex relative offsets, and
// consume exactly the bytes and canonical edges the directories declare.
// Use it before serving an image from an untrusted source; attach alone
// guarantees only memory safety, not decoded sanity. Block-parallel;
// workers <= 0 means all CPUs.
func (pg *PackedGraph) Verify(workers int) error {
	if err := pg.checkDirectories(); err != nil {
		return err
	}
	return firstBlockError(numBlocksFor(pg.n, pg.shift), workers, func(b int) error {
		if err := pg.verifyBlock(b, pg.payload, pg.blockOff, &pg.rel, true); err != nil || !pg.directed {
			return err
		}
		return pg.verifyBlock(b, pg.inPayload, pg.inBlockOff, &pg.inRel, false)
	})
}

// verifyBlock checks block b of one payload: DecodeList vouches for each
// list's varints and for strictly increasing neighbors at or above 0, so
// what is left per list is where it starts, its last neighbor against n
// (which bounds its length too) and that it holds no self-loop (no graph
// has one, and Unpack's builder refuses it), and per block the bytes and —
// on the canonical payload — the edges it accounts for.
func (pg *PackedGraph) verifyBlock(b int, payload []byte, blockOff []uint64, rel *bitArray, canonical bool) error {
	lo, hi := blockRange(b, pg.shift, pg.n)
	pos, end := int(blockOff[b]), int(blockOff[b+1])
	var canonArcs int64
	var nbrs []graph.NodeID
	for v := lo; v < hi; v++ {
		if int(blockOff[b])+int(rel.get(v)) != pos {
			return fmt.Errorf("succinct: vertex %d: relative offset disagrees with the payload", v)
		}
		var next int
		nbrs, next = DecodeList(nbrs[:0], payload[:end], pos, graph.NodeID(v))
		if next == pos {
			return fmt.Errorf("succinct: vertex %d: the list does not decode", v)
		}
		if len(nbrs) > 0 && int(nbrs[len(nbrs)-1]) >= pg.n {
			return fmt.Errorf("succinct: vertex %d: neighbor %d out of range", v, nbrs[len(nbrs)-1])
		}
		if _, loop := slices.BinarySearch(nbrs, graph.NodeID(v)); loop {
			return fmt.Errorf("succinct: vertex %d: self-loop", v)
		}
		if pg.directed {
			canonArcs += int64(len(nbrs))
		} else {
			canonArcs += int64(len(forward(nbrs, graph.NodeID(v))))
		}
		pos = next
	}
	if pos != end {
		return fmt.Errorf("succinct: block %d: payload does not match the directory", b)
	}
	if want := pg.edgeStart[b+1] - pg.edgeStart[b]; canonical && canonArcs != want {
		return fmt.Errorf("succinct: block %d: %d canonical edges, directory declares %d", b, canonArcs, want)
	}
	return nil
}

// payloadAliases reports whether pg's payload points into data — the
// zero-copy tripwire tests pin.
func (pg *PackedGraph) payloadAliases(data []byte) bool {
	if len(pg.payload) == 0 {
		return true
	}
	start := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	end := start + uintptr(len(data))
	p := uintptr(unsafe.Pointer(unsafe.SliceData(pg.payload)))
	return p >= start && p < end
}
