package succinct

import (
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
			if skip := skipList(buf, 0); skip != len(buf) {
				t.Fatalf("skipList consumed %d of %d", skip, len(buf))
			}
		}
	}
}

// decodeListRef is the straight-line decoder DecodeList's fast paths must
// agree with: one Uvarint per entry, append per neighbor, fail in place.
func decodeListRef(dst []graph.NodeID, buf []byte, pos int, base graph.NodeID) ([]graph.NodeID, int) {
	d, p := Uvarint(buf, pos)
	if p == pos {
		return dst, pos
	}
	n := len(dst)
	cur := int64(base)
	for i := uint64(0); i < d; i++ {
		raw, q := Uvarint(buf, p)
		if q == p {
			return dst[:n], pos
		}
		if i == 0 {
			cur += UnZigZag(raw)
		} else {
			cur += int64(raw) + 1
		}
		dst = append(dst, graph.NodeID(cur))
		p = q
	}
	return dst, p
}

// TestDecodeListGapWidthsAtBufferEnd puts a gap of every decoder path — the
// one- and two-byte fast paths, the three-byte and the maximal ten-byte
// slow path — last in the buffer, where the two-byte lookahead has nothing
// to look at, after runs that mix the widths. The decode must consume the
// buffer exactly and match the reference; every truncation must fail in
// place and leave dst as it was.
func TestDecodeListGapWidthsAtBufferEnd(t *testing.T) {
	gapOfWidth := map[int]uint64{1: 0x7f, 2: 0x80, 3: 1 << 14, 10: 1<<63 | 5}
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
			want, wantNext := decodeListRef(slices.Clone(kept), buf, 0, base)
			got, next := DecodeList(slices.Clone(kept), buf, 0, base)
			if next != len(buf) || wantNext != len(buf) || !slices.Equal(got, want) {
				t.Fatalf("width %d after %v: consumed %d of %d, got %v want %v", width, lead, next, len(buf), got, want)
			}
			if len(got) != len(kept)+1+len(gaps) || got[2] != base-7 {
				t.Fatalf("width %d after %v: decoded %v", width, lead, got)
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
// must never panic and must fail in place on corruption, and to the
// early-exit probe, which for any base, vertex count and set must answer
// what DecodeList followed by firstMember answers and must not read the set
// at or beyond n. The probe stops at its first hit, so on a corrupt list it
// is held to the longest prefix that does decode: "not found" unless a
// member precedes the damage.
func FuzzDecodeListRobust(f *testing.F) {
	f.Add([]byte{}, int32(0), uint16(0), []byte{})
	f.Add([]byte{0x00}, int32(0), uint16(8), []byte{0xff})
	f.Add(AppendList(nil, 3, []graph.NodeID{4, 9, 17}), int32(3), uint16(20), []byte{0x00, 0x02, 0x02})
	f.Add(AppendList(nil, 3, []graph.NodeID{4, 9, 17}), int32(3), uint16(9), []byte{0x00, 0x02, 0x02})
	f.Add([]byte{0xff, 0xff, 0xff}, int32(1), uint16(64), []byte{0xaa})
	f.Add([]byte{0x02, 0x00, 0xff}, int32(5), uint16(70), []byte{0xff}) // a hit, then a truncated gap
	f.Add([]byte{0x03, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}, int32(0), uint16(100), []byte{0xff})
	f.Fuzz(func(t *testing.T, buf []byte, base int32, n16 uint16, members []byte) {
		got, next := DecodeList(nil, buf, 0, base)
		if next == 0 && len(got) != 0 {
			t.Fatalf("failed decode returned %d values", len(got))
		}
		if next < 0 || next > len(buf) {
			t.Fatalf("decode consumed %d of %d", next, len(buf))
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
		want := firstMember(got, n, set)
		if d, p := Uvarint(buf, 0); next == 0 && p > 0 && d <= uint64(len(buf)-p) {
			for k := uint64(1); k <= d; k++ {
				prefix, ok := DecodeList(nil, append(AppendUvarint(nil, k), buf[p:]...), 0, base)
				if ok == 0 {
					break
				}
				want = firstMember(prefix, n, set)
			}
		}
		if probe := firstInSet(buf, 0, base, n, set); probe != want {
			t.Fatalf("probe of %x (base %d, n %d) = %d, DecodeList and a linear search give %d", buf, base, n, probe, want)
		}
	})
}
