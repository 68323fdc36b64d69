package succinct

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/graph"
)

func TestUvarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 129, 1 << 14, 1<<14 - 1, 1 << 21, 1 << 35,
		1 << 63, math.MaxUint64, math.MaxUint64 - 1}
	for _, x := range values {
		buf := AppendUvarint(nil, x)
		if len(buf) > MaxVarintLen {
			t.Fatalf("%d encoded to %d bytes", x, len(buf))
		}
		v, next := Uvarint(buf, 0)
		if v != x || next != len(buf) {
			t.Fatalf("round trip %d: got %d, consumed %d of %d", x, v, next, len(buf))
		}
		// Every strict prefix is truncated and must fail in place.
		for i := 0; i < len(buf); i++ {
			if _, next := Uvarint(buf[:i], 0); next != 0 {
				t.Fatalf("truncated prefix of %d decoded (len %d)", x, i)
			}
		}
	}
}

func TestUvarintRejectsOverflow(t *testing.T) {
	// Eleven continuation bytes can only encode values beyond uint64.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, next := Uvarint(over, 0); next != 0 {
		t.Fatal("overlong encoding accepted")
	}
	// Ten bytes whose last carries more than one bit overflow too.
	over = []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, next := Uvarint(over, 0); next != 0 {
		t.Fatal("uint64 overflow accepted")
	}
}

func TestZigZag(t *testing.T) {
	cases := map[int64]uint64{0: 0, -1: 1, 1: 2, -2: 3, 2: 4,
		math.MaxInt64: math.MaxUint64 - 1, math.MinInt64: math.MaxUint64}
	for x, want := range cases {
		if got := ZigZag(x); got != want {
			t.Fatalf("ZigZag(%d) = %d, want %d", x, got, want)
		}
		if back := UnZigZag(want); back != x {
			t.Fatalf("UnZigZag(%d) = %d, want %d", want, back, x)
		}
	}
}

func TestListRoundTrip(t *testing.T) {
	lists := [][]graph.NodeID{
		nil,
		{5},
		{0},
		{0, 1, 2, 3},
		{7, 100, 101, 4000, 1 << 30},
	}
	for _, base := range []graph.NodeID{0, 9, 1 << 20} {
		for _, nbrs := range lists {
			buf := AppendList(nil, base, nbrs)
			got, next := DecodeList(nil, buf, 0, base)
			if next != len(buf) {
				t.Fatalf("base %d list %v: consumed %d of %d", base, nbrs, next, len(buf))
			}
			if len(got) != len(nbrs) {
				t.Fatalf("base %d list %v: got %v", base, nbrs, got)
			}
			for i := range nbrs {
				if got[i] != nbrs[i] {
					t.Fatalf("base %d list %v: got %v", base, nbrs, got)
				}
			}
		}
	}
}

// decodeListRef is the straight-line decoder the three readers in varint.go
// must agree with: one value per step, bit by bit inside a group, append per
// neighbor, and nothing shared with the production code but Uvarint. It
// returns the length the header declares (0 when the header does not decode
// or declares more entries than the bytes behind it can hold — a byte for
// the head, one per group of eight gaps, one per gap of the varint tail),
// the neighbors in front of the first damage — an undecodable varint, a
// group whose width byte exceeds 31 or whose bytes run past buf, a gap or a
// neighbor outside [0, nodeLimit) — and the position after the list, or pos
// when there was damage. DecodeList must fail in place exactly when it
// reports damage and return its neighbors otherwise; the streaming loop and
// the early-exit probe, which cannot take back what they delivered, see its
// neighbors either way.
func decodeListRef(buf []byte, pos int, base graph.NodeID) (declared int, nbrs []graph.NodeID, next int) {
	d, p := Uvarint(buf, pos)
	if p == pos || d == 0 {
		return 0, nil, p
	}
	if gaps := d - 1; 1+gaps/8+gaps%8 > uint64(len(buf)-p) {
		return 0, nil, pos
	}
	raw, q := Uvarint(buf, p)
	cur := int64(base) + UnZigZag(raw)
	if q == p || cur < 0 || cur >= nodeLimit {
		return int(d), nil, pos
	}
	nbrs = append(nbrs, graph.NodeID(cur))
	p = q
	for k := uint64(0); k < d-1; k++ { // gap k follows entry k
		var gap uint64
		if k < (d-1)/8*8 {
			j := int(k % 8)
			if p >= len(buf) || buf[p] > 31 || p+1+int(buf[p]) > len(buf) {
				return int(d), nbrs, pos
			}
			w := int(buf[p])
			for b := 0; b < w; b++ {
				bit := j*w + b
				gap |= uint64(buf[p+1+bit/8]>>(bit%8)&1) << b
			}
			if j == 7 {
				p += 1 + w
			}
		} else if gap, q = Uvarint(buf, p); q == p || gap >= nodeLimit {
			return int(d), nbrs, pos
		} else {
			p = q
		}
		if cur += int64(gap) + 1; cur >= nodeLimit {
			return int(d), nbrs, pos
		}
		nbrs = append(nbrs, graph.NodeID(cur))
	}
	return int(d), nbrs, p
}

// streamed collects what the streaming loop delivers for the list at pos.
func streamed(buf []byte, pos int, base graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	streamList(buf, pos, base, func(w graph.NodeID) { out = append(out, w) })
	return out
}

// TestDecodeListGapWidthsAtBufferEnd puts a gap of every decoder path — the
// one- and two-byte fast paths, the three-byte and the five-byte slow path
// (the widest a NodeID needs) — last in the buffer, where the two-byte
// lookahead has nothing to look at, after runs that mix the widths. The
// decode must consume the buffer exactly and match the reference; every
// truncation must fail in place and leave dst as it was.
func TestDecodeListGapWidthsAtBufferEnd(t *testing.T) {
	gapOfWidth := map[int]uint64{1: 0x7f, 2: 0x80, 3: 1 << 14, 5: 1 << 28}
	leads := [][]uint64{nil, {0}, {3, 0x3fff, 0, 1 << 20, 0x7f, 0x80}}
	const base = graph.NodeID(1000)
	for width, last := range gapOfWidth {
		if got := len(AppendUvarint(nil, last)); got != width {
			t.Fatalf("gap %#x encodes to %d bytes, the table says %d", last, got, width)
		}
		for _, lead := range leads {
			gaps := append(slices.Clone(lead), last)
			buf := AppendUvarint(nil, uint64(1+len(gaps)))
			buf = AppendUvarint(buf, ZigZag(-7)) // first neighbor: base-7
			for _, gap := range gaps {
				buf = AppendUvarint(buf, gap)
			}
			kept := []graph.NodeID{42, 43}
			_, ref, refNext := decodeListRef(buf, 0, base)
			want := append(slices.Clone(kept), ref...)
			got, next := DecodeList(slices.Clone(kept), buf, 0, base)
			if next != len(buf) || refNext != len(buf) || !slices.Equal(got, want) {
				t.Fatalf("width %d after %v: consumed %d of %d, got %v want %v", width, lead, next, len(buf), got, want)
			}
			if len(got) != len(kept)+1+len(gaps) || got[2] != base-7 {
				t.Fatalf("width %d after %v: decoded %v", width, lead, got)
			}
			if s := streamed(buf, 0, base); !slices.Equal(s, ref) {
				t.Fatalf("width %d after %v: streamed %v, want %v", width, lead, s, ref)
			}
			// The same list followed by more payload decodes identically.
			longer := append(slices.Clone(buf), 0xff, 0xff, 0x01)
			if got, next := DecodeList(slices.Clone(kept), longer, 0, base); next != len(buf) || !slices.Equal(got, want) {
				t.Fatalf("width %d after %v with trailing bytes: consumed %d, got %v", width, lead, next, got)
			}
			for cut := 0; cut < len(buf); cut++ {
				got, next := DecodeList(slices.Clone(kept), buf[:cut], 0, base)
				if next != 0 || !slices.Equal(got, kept) {
					t.Fatalf("width %d after %v cut to %d of %d bytes: next=%d dst=%v", width, lead, cut, len(buf), next, got)
				}
			}
		}
	}
}

// A neighbor that leaves [0, 2^31) must be refused, not truncated into a
// plausible NodeID: by a head below 0, by one gap (2^31, the smallest
// refused; 2^32, which truncation would turn into a gap of 0; the maximal
// ten-byte varint, negative as an int64) and by small gaps adding up. The
// bulk decode fails in place; the streaming loop and the probe stop in
// front of the offender.
func TestReadersRefuseNeighborsBeyondNodeID(t *testing.T) {
	list := func(head int64, gaps ...uint64) []byte {
		buf := AppendUvarint(nil, uint64(1+len(gaps)))
		buf = AppendUvarint(buf, ZigZag(head))
		for _, gap := range gaps {
			buf = AppendUvarint(buf, gap)
		}
		return append(buf, 0x00, 0x00) // more payload behind the list
	}
	const base = graph.NodeID(10)
	cases := map[string]struct {
		buf  []byte
		want []graph.NodeID // what decodes in front of the offender
	}{
		"negative head":       {list(-11, 3), nil},
		"head at 2^31":        {list(1<<31-10, 3), nil},
		"gap of 2^31":         {list(-7, 4, 1<<31, 0), []graph.NodeID{3, 8}},
		"gap of 2^32":         {list(-7, 4, 1<<32, 0), []graph.NodeID{3, 8}},
		"ten-byte gap":        {list(-7, 4, 1<<63|5, 0), []graph.NodeID{3, 8}},
		"small gaps add up":   {list(1<<31-12, 0, 0), []graph.NodeID{1<<31 - 2, 1<<31 - 1}},
		"largest id accepted": {list(1<<31-12, 0), []graph.NodeID{1<<31 - 2, 1<<31 - 1}},
	}
	for name, c := range cases {
		kept := []graph.NodeID{42}
		got, next := DecodeList(slices.Clone(kept), c.buf, 0, base)
		if name == "largest id accepted" {
			if next != len(c.buf)-2 || !slices.Equal(got[1:], c.want) {
				t.Fatalf("%s: DecodeList = %v, consumed %d", name, got, next)
			}
		} else if next != 0 || !slices.Equal(got, kept) {
			t.Fatalf("%s: DecodeList accepted the list: %v (consumed %d)", name, got, next)
		}
		if s := streamed(c.buf, 0, base); !slices.Equal(s, c.want) {
			t.Fatalf("%s: streamed %v, want %v", name, s, c.want)
		}
		// No member in front of the offender: the probe must not find the
		// truncated neighbor behind it.
		set := bitset.New(64)
		for i := 0; i < 64; i++ {
			if !slices.Contains(c.want, graph.NodeID(i)) {
				set.Set(i)
			}
		}
		if w := firstInSet(c.buf, 0, base, 64, set); w != -1 {
			t.Fatalf("%s: the probe found %d", name, w)
		}
	}
}

// TestShortListsKeepTheirBytes pins what the group layout promised the
// stored formats: a list of fewer than nine entries has no group, so
// AppendList emits exactly the bytes it emitted when every gap was a varint
// (captured on the parent commit), and the readers read them back.
func TestShortListsKeepTheirBytes(t *testing.T) {
	cases := []struct {
		base graph.NodeID
		nbrs []graph.NodeID
		want string
	}{
		{0, nil, "00"},
		{5, []graph.NodeID{5}, "0100"},
		{9, []graph.NodeID{0}, "0111"},
		{0, []graph.NodeID{1073741824}, "018080808008"},
		{1000, []graph.NodeID{872, 999, 1001, 1128}, "04ff017e017e"},
		{3, []graph.NodeID{4, 5}, "020200"},
		{70, []graph.NodeID{2, 131, 16515, 2113668}, "0487018001ff7f80808001"},
		{1048576, []graph.NodeID{7, 100, 101, 4000, 1073741824}, "05f1ff7f5c00ba1edfe0ffff03"},
		{12, []graph.NodeID{0, 1, 2, 3, 4, 5, 6}, "0717000000000000"},
		{0, []graph.NodeID{0, 1, 2, 3, 4, 5, 6, 7}, "080000000000000000"},
		{300, []graph.NodeID{10, 138, 139, 16523, 16524, 20000, 20001, 2147483647}, "08c3047f00ff7f00931b00dde3feff07"},
		{2147483647, []graph.NodeID{0, 2147483647}, "02fdffffff0ffeffffff07"},
		{64, []graph.NodeID{0, 128, 256, 384, 512, 640, 768, 896}, "087f7f7f7f7f7f7f7f"},
	}
	for _, c := range cases {
		buf := AppendList(nil, c.base, c.nbrs)
		if got := fmt.Sprintf("%x", buf); got != c.want {
			t.Errorf("base %d list %v encodes to %s, the parent wrote %s", c.base, c.nbrs, got, c.want)
		}
		if got, next := DecodeList(nil, buf, 0, c.base); next != len(buf) || !slices.Equal(got, c.nbrs) {
			t.Errorf("base %d list %v decodes to %v, consumed %d of %d", c.base, c.nbrs, got, next, len(buf))
		}
		if s := streamed(buf, 0, c.base); !slices.Equal(s, c.nbrs) {
			t.Errorf("base %d list %v streams as %v", c.base, c.nbrs, s)
		}
		var widths [65]int64
		if size := len(listWidths(nil, c.base, c.nbrs, &widths)); size != len(buf) {
			t.Errorf("base %d list %v: listWidths says %d bytes, AppendList wrote %d", c.base, c.nbrs, size, len(buf))
		}
	}
}

// TestGroupWidths round-trips one list per group width 0…31 — two groups of
// that width and a varint tail — through the three readers, with the list
// placed so that its last group takes each load path of decodeGroup and
// bitsAt: far from the end of the buffer (two loads up to width 15, a load
// per value above), exactly at the end, and with one to seven bytes behind
// it (the byte-by-byte load). Every cut of the buffer must fail in place in
// the bulk reader and stop the other two in front of the damage, and no
// width may read outside the buffer (the race and bounds checks see to it).
func TestGroupWidths(t *testing.T) {
	const base = graph.NodeID(77)
	for w := 0; w <= maxGroupWidth; w++ {
		// Gaps of exactly w bits first and last in each group, smaller ones
		// between, so every bit position of the width carries a value.
		nbrs := []graph.NodeID{base - 7} // a one-byte head: the first width byte is list[2]
		for k := 0; k < 16; k++ {
			gap := uint64(k) * 0x9e3779b9 & (1<<w - 1)
			if k%8 == 0 || k%8 == 7 {
				gap |= 1 << w >> 1
			}
			if next := uint64(nbrs[len(nbrs)-1]) + gap + 1; next < nodeLimit {
				nbrs = append(nbrs, graph.NodeID(next))
			}
		}
		if w < 29 { // wider gaps leave no room below nodeLimit for two groups and a tail
			nbrs = append(nbrs, nbrs[len(nbrs)-1]+1, nbrs[len(nbrs)-1]+300)
		}
		list := AppendList(nil, base, nbrs)
		if len(nbrs) >= 9 && int(list[2]) != w {
			t.Fatalf("width %d: the first group is stored at width %d", w, list[2])
		}
		for _, behind := range []int{64, 0, 1, 2, 3, 4, 5, 6, 7} {
			// Groups only: the last group ends where the buffer does.
			for _, entries := range []int{len(nbrs), 1 + (len(nbrs)-1)/8*8} {
				buf := append(AppendList([]byte{0xee, 0xee, 0xee}, base, nbrs[:entries]), slices.Repeat([]byte{0xff}, behind)...)
				end := len(buf) - behind
				want := nbrs[:entries]
				if _, ref, refNext := decodeListRef(buf, 3, base); refNext != end || !slices.Equal(ref, want) {
					t.Fatalf("width %d, %d bytes behind: the reference decodes %v, consumed %d of %d", w, behind, ref, refNext, end)
				}
				kept := []graph.NodeID{42}
				if got, next := DecodeList(slices.Clone(kept), buf, 3, base); next != end || !slices.Equal(got[1:], want) {
					t.Fatalf("width %d, %d bytes behind: DecodeList = %v, consumed %d of %d, want %v", w, behind, got, next, end, want)
				}
				if s := streamed(buf, 3, base); !slices.Equal(s, want) {
					t.Fatalf("width %d, %d bytes behind: streamed %v, want %v", w, behind, s, want)
				}
				// The probe looks for the last neighbor, in a set no larger
				// than 4 Mbit: behind that it must stop at the first
				// neighbor the set does not cover.
				n, last := 1<<22, want[len(want)-1]
				set := bitset.New(n)
				if int(last) < n {
					set.Set(int(last))
				} else {
					last = -1
				}
				if hit := firstInSet(buf, 3, base, n, set); hit != last {
					t.Fatalf("width %d, %d bytes behind: the probe found %d, want %d", w, behind, hit, last)
				}
				if behind != 0 {
					continue
				}
				for cut := 3; cut < len(buf); cut++ {
					_, ref, _ := decodeListRef(buf[:cut], 3, base)
					if got, next := DecodeList(slices.Clone(kept), buf[:cut], 3, base); next != 3 || !slices.Equal(got, kept) {
						t.Fatalf("width %d cut to %d of %d bytes: next=%d dst=%v", w, cut, len(buf), next, got)
					}
					if s := streamed(buf[:cut], 3, base); !slices.Equal(s, ref) {
						t.Fatalf("width %d cut to %d of %d bytes: streamed %v, the reference gives %v", w, cut, len(buf), s, ref)
					}
					if hit := firstInSet(buf[:cut], 3, base, n, set); hit != -1 {
						t.Fatalf("width %d cut to %d of %d bytes: the probe found %d behind the cut", w, cut, len(buf), hit)
					}
				}
			}
		}
	}
}

// FuzzVarintRoundTrip pins the codec's core contract: every uint64 and
// every signed delta survives encode/decode, truncated prefixes fail in
// place, and the list layout round-trips a two-element adjacency derived
// from the fuzzed values.
func FuzzVarintRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0))
	f.Add(uint64(127), int64(-1))
	f.Add(uint64(128), int64(1<<40))
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64))
	f.Fuzz(func(t *testing.T, x uint64, d int64) {
		buf := AppendUvarint(nil, x)
		v, next := Uvarint(buf, 0)
		if v != x || next != len(buf) {
			t.Fatalf("uvarint round trip %d: got %d (consumed %d/%d)", x, v, next, len(buf))
		}
		for i := 0; i < len(buf); i++ {
			if _, n := Uvarint(buf[:i], 0); n != 0 {
				t.Fatalf("truncated prefix of %d decoded", x)
			}
		}
		if back := UnZigZag(ZigZag(d)); back != d {
			t.Fatalf("zigzag round trip %d: got %d", d, back)
		}
		// A two-element sorted list derived from the fuzz inputs.
		a := graph.NodeID(x & 0x3fffffff)
		b := a + 1 + graph.NodeID(uint64(d)&0xffff)
		base := graph.NodeID(uint64(d) & 0x3fffffff)
		lbuf := AppendList(nil, base, []graph.NodeID{a, b})
		got, n := DecodeList(nil, lbuf, 0, base)
		if n != len(lbuf) || len(got) != 2 || got[0] != a || got[1] != b {
			t.Fatalf("list round trip [%d %d] base %d: got %v", a, b, base, got)
		}
	})
}

// firstMember is the linear membership search the early-exit probe stands
// for: the first of nbrs in set, unless a neighbor outside [0, n) comes first.
func firstMember(nbrs []graph.NodeID, n int, set *bitset.Bits) graph.NodeID {
	for _, w := range nbrs {
		if w < 0 || int(w) >= n {
			return -1
		}
		if set.Get(int(w)) {
			return w
		}
	}
	return -1
}

// FuzzDecodeListRobust feeds arbitrary bytes to the list decoder, which
// must never panic, must fail in place on corruption and otherwise return
// what the straight-line reference returns, and to the streaming loop and
// the early-exit probe, which for any base, vertex count and set must
// deliver what the reference delivers — the probe, the reference followed
// by firstMember — and must not read the set at or beyond n. Both stop at
// the first damage, so on a corrupt list they are held to the neighbors in
// front of it: nothing behind it, "not found" unless a member precedes it.
// The declared length is held to the reference's header checks.
func FuzzDecodeListRobust(f *testing.F) {
	f.Add([]byte{}, int32(0), uint16(0), []byte{})
	f.Add([]byte{0x00}, int32(0), uint16(8), []byte{0xff})
	f.Add(AppendList(nil, 3, []graph.NodeID{4, 9, 17}), int32(3), uint16(20), []byte{0x00, 0x02, 0x02})
	f.Add(AppendList(nil, 3, []graph.NodeID{4, 9, 17}), int32(3), uint16(9), []byte{0x00, 0x02, 0x02})
	f.Add([]byte{0xff, 0xff, 0xff}, int32(1), uint16(64), []byte{0xaa})
	f.Add([]byte{0x02, 0x00, 0xff}, int32(5), uint16(70), []byte{0xff}) // a hit, then a truncated gap
	f.Add([]byte{0x03, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}, int32(0), uint16(100), []byte{0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x40, 0x02, 0x00}, int32(0), uint16(16), []byte{0xff}) // 2^34 entries declared
	f.Add([]byte{0x02, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, int32(7), uint16(16), []byte{0xff})
	grouped := AppendList(nil, 40, []graph.NodeID{3, 4, 9, 17, 30, 31, 77, 200, 201, 1000, 5000, 5001})
	f.Add(grouped, int32(40), uint16(6000), []byte{0x00, 0x00, 0x80})                     // one group and a tail
	f.Add(grouped[:len(grouped)-4], int32(40), uint16(6000), []byte{0x00})                // the tail cut
	f.Add(grouped[:6], int32(40), uint16(6000), []byte{0xff})                             // the group cut
	f.Add([]byte{0x09, 0x00, 0x20, 0x00, 0x00}, int32(0), uint16(64), []byte{0x00})       // a width byte of 32
	f.Add([]byte{0x11, 0x02, 0x00, 0x00}, int32(0), uint16(64), []byte{0x00, 0x00, 0x01}) // two groups of width 0
	f.Fuzz(func(t *testing.T, buf []byte, base int32, n16 uint16, members []byte) {
		got, next := DecodeList(nil, buf, 0, base)
		if next == 0 && len(got) != 0 {
			t.Fatalf("failed decode returned %d values", len(got))
		}
		if next < 0 || next > len(buf) {
			t.Fatalf("decode consumed %d of %d", next, len(buf))
		}
		if !slices.IsSortedFunc(got, func(a, b graph.NodeID) int { return cmp.Compare(a, b+1) }) || (len(got) > 0 && got[0] < 0) {
			t.Fatalf("decode of %x (base %d) is not strictly increasing from 0 up: %v", buf, base, got)
		}
		n := int(n16)
		set := bitset.New(n)
		for i := 0; i < n && len(members) > 0; i++ {
			if members[i/8%len(members)]>>(i%8)&1 != 0 {
				set.Set(i)
			}
		}
		// Poison the tail of the last word: a probe that looks at or beyond
		// n finds a member there and returns it.
		for i := n; i%64 != 0; i++ {
			set.Set(i)
		}
		declared, longest, refNext := decodeListRef(buf, 0, base)
		if next != refNext || (next != 0 && !slices.Equal(got, longest)) {
			t.Fatalf("decode of %x (base %d) = %v, consumed %d; the reference gives %v, consumed %d", buf, base, got, next, longest, refNext)
		}
		if s := streamed(buf, 0, base); !slices.Equal(s, longest) {
			t.Fatalf("stream of %x (base %d) = %v, the reference gives %v", buf, base, s, longest)
		}
		if want, probe := firstMember(longest, n, set), firstInSet(buf, 0, base, n, set); probe != want {
			t.Fatalf("probe of %x (base %d, n %d) = %d, the reference and a linear search give %d", buf, base, n, probe, want)
		}
		if l := listLen(buf, 0); l != declared {
			t.Fatalf("listLen of %x = %d, the header checks of DecodeList give %d", buf, l, declared)
		}
	})
}
