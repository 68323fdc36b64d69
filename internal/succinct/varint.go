package succinct

// This file is the list codec: the only non-test code that reads or writes
// the bytes of an adjacency list, so replacing the layout is an edit to this
// file alone. doc.go states the layout, what a candidate codec must supply
// and the corrupt-input contract the readers share.

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
)

const (
	MaxVarintLen  = 10 // the most bytes one encoded uint64 occupies
	groupSize     = 8  // gap-1 values that share one width byte
	maxGroupWidth = 31 // the widest they are stored: a gap-1 below nodeLimit
	// nodeLimit is one past the largest graph.NodeID: a neighbor or a gap at
	// or beyond it is refused, never truncated into a plausible vertex.
	nodeLimit = 1 << 31
)

// AppendUvarint appends x in LEB128 form: seven value bits per byte, high
// bit set on every byte but the last.
func AppendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

// Uvarint decodes the varint starting at pos and returns the value and the
// position of the first byte after it. A truncated or overlong encoding
// returns next == pos, which callers treat as corruption.
func Uvarint(buf []byte, pos int) (x uint64, next int) {
	for i, s := pos, uint(0); i < len(buf) && s < 64; i, s = i+1, s+7 {
		b := buf[i]
		x |= uint64(b&0x7f) << s
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, pos // overflows uint64
			}
			return x, i + 1
		}
	}
	return 0, pos
}

// ZigZag maps a signed delta onto the unsigned varint domain so that small
// magnitudes of either sign stay short: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
// UnZigZag inverts it.
func ZigZag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendList appends one adjacency list: varint(len), the first neighbor as
// ZigZag(first-base), then the gap-1 deltas of the rest — every full group
// of eight as a width byte w and w bytes holding the values at w bits each,
// first value lowest, the last (len-1) mod 8 as varints. nbrs must be
// strictly increasing (a sorted, duplicate-free adjacency).
func AppendList(dst []byte, base graph.NodeID, nbrs []graph.NodeID) []byte {
	dst = AppendUvarint(dst, uint64(len(nbrs)))
	if len(nbrs) == 0 {
		return dst
	}
	dst = AppendUvarint(dst, ZigZag(int64(nbrs[0])-int64(base)))
	i := 1
	for ; len(nbrs)-i >= groupSize; i += groupSize {
		g := nbrs[i-1 : i+groupSize] // nine neighbors, eight gaps
		var or uint32
		for j := 1; j < len(g); j++ {
			or |= uint32(g[j] - g[j-1] - 1)
		}
		w := uint(bits.Len32(or))
		dst = append(dst, byte(w))
		// One accumulator, flushed a word at a time; 8w bits are whole
		// bytes, so the rest goes out as a word cut back to what counts.
		var acc uint64
		var n uint
		for j := 1; j < len(g); j++ {
			v := uint64(g[j] - g[j-1] - 1)
			acc |= v << n
			if n += w; n >= 64 {
				dst = binary.LittleEndian.AppendUint64(dst, acc)
				n -= 64
				acc = v >> (w - n)
			}
		}
		dst = binary.LittleEndian.AppendUint64(dst, acc)[:len(dst)+int(n/8)]
	}
	for ; i < len(nbrs); i++ {
		dst = AppendUvarint(dst, uint64(nbrs[i]-nbrs[i-1]-1))
	}
	return dst
}

// listWidths counts, in widths, the minimal binary width of every value of
// the list and returns it encoded over scratch: the bytes the list costs.
func listWidths(scratch []byte, base graph.NodeID, nbrs []graph.NodeID, widths *[65]int64) []byte {
	for i, w := range nbrs {
		if i == 0 {
			widths[bits.Len64(ZigZag(int64(w)-int64(base)))]++
		} else {
			widths[bits.Len32(uint32(w-nbrs[i-1]-1))]++
		}
	}
	return AppendList(scratch[:0], base, nbrs)
}

// MaxPayloadBytes bounds the payload of the given number of lists and of
// entries over all of them: a header per list and a value per entry, at most
// MaxVarintLen bytes each (a group is 33 bytes for eight). A section that
// declares more is corrupt, and refused before anything is sized from it.
func MaxPayloadBytes(lists, entries int64) int64 { return (lists + entries) * MaxVarintLen }

// listFits reports whether d >= 1 entries can lie in the rem bytes behind a
// length header: a byte for the head, one per group, one per varint gap.
// Every reader refuses a header that declares more, so a declared length
// sizes at most 32 B of destination per payload byte.
func listFits(d, rem uint64) bool { return d <= rem || 1+(d-1)/groupSize+(d-1)%groupSize <= rem }

// listLen returns the declared length of the list at pos, or 0 for the lists
// DecodeList refuses on the header alone. A single-byte header with a byte
// left per entry, nearly every one, is answered without the varint loop.
func listLen(buf []byte, pos int) int {
	if pos < len(buf) && buf[pos] < 0x80 && int(buf[pos]) < len(buf)-pos {
		return int(buf[pos])
	}
	d, p := Uvarint(buf, pos)
	if d == 0 || !listFits(d, uint64(len(buf)-p)) {
		return 0
	}
	return int(d)
}

// bitsAt returns the payload bits from bit on, counted from the byte at gp:
// one unaligned load and a shift — put together byte by byte within eight
// bytes of the end of buf, so nothing outside buf is read.
func bitsAt(buf []byte, gp int, bit uint) (x uint64) {
	i := gp + int(bit>>3)
	if i+8 <= len(buf) {
		return binary.LittleEndian.Uint64(buf[i:]) >> (bit & 7)
	}
	for k := len(buf) - 1; k >= i; k-- {
		x = x<<8 | uint64(buf[k])
	}
	return x >> (bit & 7)
}

// decodeGroup decodes the group at p into o as the neighbors that follow cur
// and returns the last of them and the position behind the group, or
// next == p when the width byte exceeds maxGroupWidth or the group runs past
// buf. Up to 15 bits a value, two loads hold the group and only the add
// waits on the previous value; a wider group, and one within eight bytes of
// the end of buf, loads value by value. Eight values cannot overflow cur:
// neighbors at or beyond nodeLimit are stored truncated — the first of them
// negative, the last returned whole — for the caller to refuse.
func decodeGroup(o *[groupSize]graph.NodeID, buf []byte, p int, cur int64) (last int64, next int) {
	if p >= len(buf) || buf[p] > maxGroupWidth || int(buf[p]) >= len(buf)-p {
		return cur, p
	}
	w := uint(buf[p])
	p++
	next = p + int(w)
	mask := uint64(1)<<w - 1
	if w > 15 || next+8 > len(buf) {
		for j := range o {
			cur += int64(bitsAt(buf, p, uint(j)*w)&mask) + 1
			o[j] = graph.NodeID(cur)
		}
		return cur, next
	}
	lo := binary.LittleEndian.Uint64(buf[p:])
	hi := binary.LittleEndian.Uint64(buf[p+int(w>>1):]) >> (4 * (w & 1))
	c0 := cur + int64(lo&mask) + 1
	c1 := c0 + int64(lo>>w&mask) + 1
	c2 := c1 + int64(lo>>(2*w)&mask) + 1
	c3 := c2 + int64(lo>>(3*w)&mask) + 1
	c4 := c3 + int64(hi&mask) + 1
	c5 := c4 + int64(hi>>w&mask) + 1
	c6 := c5 + int64(hi>>(2*w)&mask) + 1
	c7 := c6 + int64(hi>>(3*w)&mask) + 1
	o[0], o[1], o[2], o[3] = graph.NodeID(c0), graph.NodeID(c1), graph.NodeID(c2), graph.NodeID(c3)
	o[4], o[5], o[6], o[7] = graph.NodeID(c4), graph.NodeID(c5), graph.NodeID(c6), graph.NodeID(c7)
	return c7, next
}

// DecodeList appends the list encoded at pos to dst and returns the grown
// slice and the position after the list; corrupt input (doc.go) returns
// next == pos with dst unchanged. What it returns is strictly increasing.
func DecodeList(dst []graph.NodeID, buf []byte, pos int, base graph.NodeID) ([]graph.NodeID, int) {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 {
		return dst, p
	}
	raw, q := Uvarint(buf, p)
	cur := int64(base) + UnZigZag(raw)
	if !listFits(d, uint64(len(buf)-p)) || q == p || uint64(cur) >= nodeLimit {
		return dst, pos
	}
	n := len(dst)
	dst = slices.Grow(dst, int(d))[:n+int(d)]
	out := dst[n:]
	out[0] = graph.NodeID(cur)
	i := 1
	for ; len(out)-i >= groupSize; i += groupSize {
		if cur, p = decodeGroup((*[groupSize]graph.NodeID)(out[i:]), buf, q, cur); p == q || cur >= nodeLimit {
			return dst[:n], pos
		}
		q = p
	}
	for ; i < len(out); i++ {
		var gap uint64
		if q+1 < len(buf) && buf[q]&buf[q+1] < 0x80 {
			// One or two bytes, nearly every varint gap, without a branch on
			// which: the second byte counts only under the first's high bit.
			b0, b1 := uint64(buf[q]), uint64(buf[q+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			q += 1 + int(two)
		} else if gap, p = Uvarint(buf, q); p == q || gap >= nodeLimit || cur >= nodeLimit {
			return dst[:n], pos
		} else {
			q = p
		}
		cur += int64(gap) + 1
		out[i] = graph.NodeID(cur)
	}
	if cur >= nodeLimit {
		return dst[:n], pos
	}
	return dst, q
}

// firstInSet returns the first neighbor of the list at pos that is a member
// of set, or -1: DecodeList and a linear search, without the destination and
// the groups and gaps behind the hit. set is never read at or beyond n;
// corruption in front of the hit, and a neighbor outside [0, n), end it.
func firstInSet(buf []byte, pos int, base graph.NodeID, n int, set *bitset.Bits) graph.NodeID {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 || !listFits(d, uint64(len(buf)-p)) {
		return -1
	}
	raw, q := Uvarint(buf, p)
	limit, cur := uint64(min(n, nodeLimit)), int64(base)+UnZigZag(raw)
	if q == p {
		return -1
	}
	// cur is tested before the group behind it is decoded, and again by the
	// loop below when it is the entry that ended this one.
	for ; uint64(cur) < limit && !set.Get(int(cur)) && d > groupSize; d -= groupSize {
		var o [groupSize]graph.NodeID
		if cur, p = decodeGroup(&o, buf, q, cur); p == q {
			return -1
		}
		for _, w := range o[:groupSize-1] {
			if uint64(uint32(w)) >= limit {
				return -1
			}
			if set.Get(int(w)) {
				return w
			}
		}
		q = p
	}
	for i := uint64(1); uint64(cur) < limit; i++ {
		if set.Get(int(cur)) {
			return graph.NodeID(cur)
		}
		if i == d {
			break
		}
		var gap uint64
		if q+1 < len(buf) && buf[q]&buf[q+1] < 0x80 {
			b0, b1 := uint64(buf[q]), uint64(buf[q+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			q += 1 + int(two)
		} else if gap, p = Uvarint(buf, q); p == q || gap >= nodeLimit {
			break
		} else {
			q = p
		}
		cur += int64(gap) + 1
	}
	return -1
}

// streamList invokes fn for every neighbor of the list at pos, in increasing
// order, without a destination. A list refused at its header or head delivers
// nothing; damage further in ends the stream behind what did decode.
func streamList(buf []byte, pos int, base graph.NodeID, fn func(w graph.NodeID)) {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 || !listFits(d, uint64(len(buf)-p)) {
		return
	}
	raw, q := Uvarint(buf, p)
	cur := int64(base) + UnZigZag(raw)
	if q == p || uint64(cur) >= nodeLimit {
		return
	}
	fn(graph.NodeID(cur))
	for ; d > groupSize; d -= groupSize {
		var o [groupSize]graph.NodeID
		if cur, p = decodeGroup(&o, buf, q, cur); p == q {
			return
		}
		for _, w := range o {
			if w < 0 {
				return
			}
			fn(w)
		}
		q = p
	}
	for ; d > 1; d-- {
		var gap uint64
		if q+1 < len(buf) && buf[q]&buf[q+1] < 0x80 {
			b0, b1 := uint64(buf[q]), uint64(buf[q+1])
			two := b0 >> 7
			gap = b0&0x7f | (b1<<7)&-two
			q += 1 + int(two)
		} else if gap, p = Uvarint(buf, q); p == q || gap >= nodeLimit {
			return
		} else {
			q = p
		}
		if cur += int64(gap) + 1; cur >= nodeLimit {
			return
		}
		fn(graph.NodeID(cur))
	}
}
