package succinct

// This file is the list codec: the only non-test code that reads or writes
// the bytes of an adjacency list. Everything else in the package — and
// everything outside it — addresses payloads list by list through the
// functions below, so replacing the layout (a fixed-width or group-varint
// codec) is an edit to this file alone. doc.go states what a candidate
// codec must supply and the corrupt-input contract the readers share.

import (
	"math/bits"
	"slices"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
)

// MaxVarintLen is the maximum number of bytes one encoded uint64 occupies.
const MaxVarintLen = 10

// nodeLimit is one past the largest graph.NodeID. Every reader refuses a
// neighbor at or beyond it, and a gap at or beyond it, rather than let the
// conversion to NodeID truncate it into a plausible vertex.
const nodeLimit = 1 << 31

// AppendUvarint appends x in LEB128 form: seven value bits per byte, high
// bit set on every byte but the last.
func AppendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// Uvarint decodes the varint starting at pos and returns the value and the
// position of the first byte after it. A truncated or overlong encoding
// returns next == pos, which callers treat as corruption.
func Uvarint(buf []byte, pos int) (x uint64, next int) {
	var s uint
	for i := pos; i < len(buf); i++ {
		b := buf[i]
		if b < 0x80 {
			if i-pos >= MaxVarintLen || (i-pos == MaxVarintLen-1 && b > 1) {
				return 0, pos // overflows uint64
			}
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			return 0, pos
		}
	}
	return 0, pos
}

// uvarintLen returns the encoded length of v in bytes.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// ZigZag maps a signed delta onto the unsigned varint domain so that small
// magnitudes of either sign stay short: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
func ZigZag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendList appends one adjacency list in the codec's per-list layout:
// varint(len), the first neighbor as ZigZag(first-base), then the remaining
// strictly increasing neighbors as varint(gap-1) deltas. nbrs must be
// strictly increasing (a sorted, duplicate-free adjacency).
func AppendList(dst []byte, base graph.NodeID, nbrs []graph.NodeID) []byte {
	dst = AppendUvarint(dst, uint64(len(nbrs)))
	if len(nbrs) == 0 {
		return dst
	}
	dst = AppendUvarint(dst, ZigZag(int64(nbrs[0])-int64(base)))
	prev := int64(nbrs[0])
	for _, w := range nbrs[1:] {
		dst = AppendUvarint(dst, uint64(int64(w)-prev-1))
		prev = int64(w)
	}
	return dst
}

// listWidths is AppendList without the bytes: it returns the size the list
// would encode to and counts, in widths, the minimal binary width of every
// value behind the length header (the zig-zagged head, then each gap-1).
func listWidths(base graph.NodeID, nbrs []graph.NodeID, widths *[65]int64) (size int64) {
	size = int64(uvarintLen(uint64(len(nbrs))))
	if len(nbrs) == 0 {
		return size
	}
	head := ZigZag(int64(nbrs[0]) - int64(base))
	widths[bits.Len64(head)]++
	size += int64(uvarintLen(head))
	for i := 1; i < len(nbrs); i++ {
		gap := uint64(nbrs[i]-nbrs[i-1]) - 1
		widths[bits.Len64(gap)]++
		size += int64(uvarintLen(gap))
	}
	return size
}

// MaxPayloadBytes bounds the size of any payload the readers below accept
// for the given number of lists and of entries over all of them: one length
// header per list, one value per entry, MaxVarintLen bytes at most for each.
// A section that declares more can only be corrupt, and is refused before
// anything is sized from it.
func MaxPayloadBytes(lists, entries int64) int64 {
	return (lists + entries) * MaxVarintLen
}

// listLen returns the declared length of the list encoded at pos, or 0 when
// the header does not decode or declares more entries than buf has bytes
// left (every entry occupies at least one) — the lists DecodeList refuses on
// the header alone. A single-byte header, nearly every one, is answered
// without the varint loop.
func listLen(buf []byte, pos int) int {
	if pos < len(buf) {
		if d := int(buf[pos]); d < 0x80 && d < len(buf)-pos {
			return d
		}
	}
	d, p := Uvarint(buf, pos)
	if d > uint64(len(buf)-p) {
		return 0
	}
	return int(d)
}

// DecodeList appends the list encoded at pos to dst and returns the grown
// slice and the position after the list. Corrupt input — a truncated or
// overlong varint, a declared length the remaining bytes cannot hold, a
// neighbor outside [0, nodeLimit) — returns next == pos with dst unchanged.
// What it does return is strictly increasing.
//
// The destination is sized once from the declared length, and gaps of one
// or two bytes — at ~11 payload bits per arc, nearly all of them — are
// decoded inline; anything longer, and anything within a byte of the end of
// buf, goes through Uvarint.
func DecodeList(dst []graph.NodeID, buf []byte, pos int, base graph.NodeID) ([]graph.NodeID, int) {
	d, p := Uvarint(buf, pos)
	if p == pos {
		return dst, pos
	}
	if d == 0 {
		return dst, p
	}
	// Every entry occupies at least one byte, which bounds the allocation a
	// corrupt length can ask for.
	if d > uint64(len(buf)-p) {
		return dst, pos
	}
	raw, q := Uvarint(buf, p)
	cur := int64(base) + UnZigZag(raw)
	if q == p || uint64(cur) >= nodeLimit {
		return dst, pos
	}
	n := len(dst)
	dst = slices.Grow(dst, int(d))[:n+int(d)]
	out := dst[n:]
	out[0] = graph.NodeID(cur)
	p = q
	for i := 1; i < len(out); i++ {
		var gap uint64
		if p+1 < len(buf) && buf[p]&buf[p+1] < 0x80 {
			// One or two bytes, decoded without a branch on which: two is
			// the continuation bit of the first byte, and the second byte
			// contributes only under its mask.
			b0, b1 := uint64(buf[p]), uint64(buf[p+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			p += 1 + int(two)
		} else {
			gap, q = Uvarint(buf, p)
			if q == p || gap >= nodeLimit || cur >= nodeLimit {
				return dst[:n], pos
			}
			p = q
		}
		cur += int64(gap) + 1
		out[i] = graph.NodeID(cur)
	}
	// The values only grow, so the last one answers for all of them.
	if cur >= nodeLimit {
		return dst[:n], pos
	}
	return dst, p
}

// firstInSet returns the first neighbor of the list encoded at pos that is a
// member of set, or -1: DecodeList followed by a linear membership search,
// without the destination and without the gaps behind the hit. n is the
// vertex count; set holds at least n bits and is never read at or beyond n.
// Corruption in front of the hit — a declared length the remaining bytes
// cannot hold, an undecodable gap, a neighbor outside [0, n) — reads as "not
// found". Gaps of one or two bytes take DecodeList's inline path.
func firstInSet(buf []byte, pos int, base graph.NodeID, n int, set *bitset.Bits) graph.NodeID {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 || d > uint64(len(buf)-p) {
		return -1
	}
	raw, q := Uvarint(buf, p)
	if q == p {
		return -1
	}
	limit := uint64(min(n, nodeLimit))
	cur := int64(base) + UnZigZag(raw)
	p = q
	for i := uint64(1); ; i++ {
		if uint64(cur) >= limit {
			return -1
		}
		if set.Get(int(cur)) {
			return graph.NodeID(cur)
		}
		if i == d {
			return -1
		}
		var gap uint64
		if p+1 < len(buf) && buf[p]&buf[p+1] < 0x80 {
			b0, b1 := uint64(buf[p]), uint64(buf[p+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			p += 1 + int(two)
		} else {
			gap, q = Uvarint(buf, p)
			if q == p || gap >= nodeLimit {
				return -1
			}
			p = q
		}
		cur += int64(gap) + 1
	}
}

// streamList invokes fn for every neighbor of the list encoded at pos, in
// increasing order, without a destination. A list DecodeList refuses at its
// header or head delivers nothing; damage further in — an undecodable gap,
// a neighbor at or beyond nodeLimit — ends the stream there, after the
// prefix that did decode (what was delivered cannot be taken back, and
// nothing is invented in its place). Gaps of one or two bytes take
// DecodeList's inline path.
func streamList(buf []byte, pos int, base graph.NodeID, fn func(w graph.NodeID)) {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 || d > uint64(len(buf)-p) {
		return
	}
	raw, q := Uvarint(buf, p)
	if q == p {
		return
	}
	cur := int64(base) + UnZigZag(raw)
	p = q
	for i := uint64(1); ; i++ {
		if uint64(cur) >= nodeLimit {
			return
		}
		fn(graph.NodeID(cur))
		if i == d {
			return
		}
		var gap uint64
		if p+1 < len(buf) && buf[p]&buf[p+1] < 0x80 {
			b0, b1 := uint64(buf[p]), uint64(buf[p+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			p += 1 + int(two)
		} else {
			gap, q = Uvarint(buf, p)
			if q == p || gap >= nodeLimit {
				return
			}
			p = q
		}
		cur += int64(gap) + 1
	}
}
