package graphio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(100, 400, 1)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != g.M() {
		t.Fatalf("m = %d, want %d", h.M(), g.M())
	}
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if !h.HasEdge(u, v) {
			t.Fatalf("edge (%d, %d) lost", u, v)
		}
	}
}

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	g := gen.WithUniformWeights(gen.Cycle(20), 1, 5, 3)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	h, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Weighted() {
		t.Fatal("weights lost")
	}
	if h.TotalWeight() != g.TotalWeight() {
		t.Fatalf("total weight %v, want %v", h.TotalWeight(), g.TotalWeight())
	}
}

func TestReadEdgeListCommentsAndBlank(t *testing.T) {
	in := "# comment\n% other comment\n\n0 1\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "0 1 2 3\n", "a b\n", "-1 2\n", "0 x\n"}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

func TestEdgeListRoundTripKeepsIsolatedVertices(t *testing.T) {
	// Vertices 3 and 4 are isolated; the "# Nodes:" header must preserve
	// them across the text round trip.
	g := graph.FromEdges(5, false, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# Nodes: 5 Edges: 2") {
		t.Fatalf("missing header in %q", buf.String())
	}
	h, err := ReadEdgeList(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != 5 {
		t.Fatalf("n = %d, want 5 (isolated vertices dropped)", h.N())
	}
}

func TestReadEdgeListNodesHeaderVariants(t *testing.T) {
	for _, in := range []string{
		"# Nodes: 7 Edges: 1\n0 1\n",
		"#Nodes: 7\n0 1\n",
		"% nodes: 7\n0 1\n",
	} {
		g, err := ReadEdgeList(strings.NewReader(in), false)
		if err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if g.N() != 7 {
			t.Fatalf("input %q: n = %d, want 7", in, g.N())
		}
	}
	// A header smaller than the max ID must not truncate the graph.
	g, err := ReadEdgeList(strings.NewReader("# Nodes: 2\n0 5\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 6 {
		t.Fatalf("n = %d, want 6 (maxID+1 wins over a smaller header)", g.N())
	}
	// Prose comments that merely mention "nodes:" are not headers, and the
	// first real header wins over later ones.
	for _, in := range []string{
		"# removed nodes: 500\n0 1\n",
		"# total nodes: 500 after cleanup\n0 1\n",
	} {
		g, err := ReadEdgeList(strings.NewReader(in), false)
		if err != nil {
			t.Fatalf("input %q: %v", in, err)
		}
		if g.N() != 2 {
			t.Fatalf("input %q: n = %d, want 2 (prose comment treated as header)", in, g.N())
		}
	}
	g, err = ReadEdgeList(strings.NewReader("# Nodes: 4\n# Nodes: 9\n0 1\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("n = %d, want 4 (first header wins)", g.N())
	}
}

func TestReadEdgeListN(t *testing.T) {
	g, err := ReadEdgeListN(strings.NewReader("0 1\n1 2\n"), false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want n=10 m=2", g.N(), g.M())
	}
	// Override wins over a larger header too.
	g, err = ReadEdgeListN(strings.NewReader("# Nodes: 50\n0 1\n"), false, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 10 {
		t.Fatalf("n = %d, want 10", g.N())
	}
	// Endpoints beyond the explicit count are an error, not a resize.
	if _, err := ReadEdgeListN(strings.NewReader("0 12\n"), false, 10); err == nil {
		t.Fatal("expected error for endpoint >= explicit vertex count")
	}
	// n <= 0 falls back to inference.
	g, err = ReadEdgeListN(strings.NewReader("0 3\n"), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 4 {
		t.Fatalf("n = %d, want 4", g.N())
	}
}

// The binary reader's sort-free canonical path must produce a graph
// bit-identical to the full builder path.
func TestBinaryCanonicalFastPathMatchesBuilder(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.ErdosRenyi(80, 300, 7),
		gen.WithUniformWeights(gen.ErdosRenyi(60, 240, 8), 1, 3, 9),
		gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 10),
	} {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(g) {
			t.Fatalf("binary round trip not structurally identical for %v", g)
		}
	}
}

// A v1 file from another writer need not list its edges in canonical order:
// reversed records, a repeated edge and an undirected edge stored with the
// larger endpoint first must load through the full builder to the same graph
// the canonical file gives.
func TestBinaryForeignEdgeOrderFallsBackToBuilder(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.WithUniformWeights(gen.ErdosRenyi(60, 240, 8), 1, 3, 9),
		gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 10),
	} {
		var buf bytes.Buffer
		if _, err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		canonical := buf.Bytes()
		rec := (len(canonical) - 16) / g.M()
		foreign := append([]byte(nil), canonical[:16]...)
		for e := g.M() - 1; e >= 0; e-- {
			r := append([]byte(nil), canonical[16+e*rec:16+(e+1)*rec]...)
			if !g.Directed() {
				copy(r[0:4], canonical[16+e*rec+4:16+e*rec+8])
				copy(r[4:8], canonical[16+e*rec:16+e*rec+4])
			}
			foreign = append(foreign, r...)
		}
		foreign = append(foreign, foreign[16:16+rec]...) // the last edge once more
		binary.LittleEndian.PutUint32(foreign[12:], uint32(g.M()+1))
		for name, read := range map[string]func(io.Reader) (*graph.Graph, error){
			"ReadBinary": ReadBinary, "Read": Read,
			"ReadAuto": func(r io.Reader) (*graph.Graph, error) { return ReadAuto(r, !g.Directed()) },
		} {
			h, err := read(bytes.NewReader(foreign))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !h.Equal(g) {
				t.Errorf("%s: foreign-order file loaded as %v, want %v", name, h, g)
			}
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.ErdosRenyi(50, 200, 2),
		gen.WithUniformWeights(gen.Grid2D(5, 5, true), 1, 9, 4),
		gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 5),
	} {
		var buf bytes.Buffer
		n, err := WriteBinary(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		if n != BinarySize(g) {
			t.Fatalf("BinarySize %d != written %d", BinarySize(g), n)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.N() != g.N() || h.M() != g.M() || h.Directed() != g.Directed() || h.Weighted() != g.Weighted() {
			t.Fatalf("round trip mismatch: %v vs %v", h, g)
		}
		if h.TotalWeight() != g.TotalWeight() {
			t.Fatalf("weight mismatch: %v vs %v", h.TotalWeight(), g.TotalWeight())
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all..."))); err == nil {
		t.Fatal("expected error for bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestPackedRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.ErdosRenyi(50, 200, 2),
		gen.ErdosRenyi(1, 0, 3),
		graph.FromEdges(7, false, nil), // isolated vertices only
		gen.WithUniformWeights(gen.Grid2D(5, 5, true), 1, 9, 4),
		gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 5),
		gen.WithUniformWeights(gen.RMATDirected(6, 4, 0.57, 0.19, 0.19, 6), 1, 3, 7),
	} {
		var buf bytes.Buffer
		n, err := WritePacked(&buf, g)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
		}
		if n != PackedSize(g) {
			t.Fatalf("PackedSize %d != written %d", PackedSize(g), n)
		}
		h, err := ReadPacked(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(g) {
			t.Fatalf("packed round trip not bit-identical for %v", g)
		}
	}
}

// Read dispatches on the version tag; each versioned reader rejects the
// other version with a pointer to the right one.
func TestVersionDispatch(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 9)
	var v1, v2 bytes.Buffer
	if _, err := WriteBinary(&v1, g); err != nil {
		t.Fatal(err)
	}
	if _, err := WritePacked(&v2, g); err != nil {
		t.Fatal(err)
	}
	if !SniffSnapshot(v1.Bytes()) || !SniffSnapshot(v2.Bytes()) {
		t.Fatal("snapshots not recognized by SniffSnapshot")
	}
	if SniffSnapshot([]byte("0 1\n1 2\n")) {
		t.Fatal("edge list misidentified as a snapshot")
	}
	for _, raw := range [][]byte{v1.Bytes(), v2.Bytes()} {
		h, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(g) {
			t.Fatal("Read dispatch round trip differs")
		}
	}
	if _, err := ReadBinary(bytes.NewReader(v2.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "ReadPacked") {
		t.Fatalf("ReadBinary on a v2 snapshot: %v", err)
	}
	if _, err := ReadPacked(bytes.NewReader(v1.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "ReadBinary") {
		t.Fatalf("ReadPacked on a v1 snapshot: %v", err)
	}
}

func TestPackedRejectsCorruption(t *testing.T) {
	g := gen.ErdosRenyi(60, 300, 11)
	var buf bytes.Buffer
	if _, err := WritePacked(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadPacked(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated packed snapshot accepted")
	}
	// An implausible block size in the directory header must be rejected
	// before any large allocation happens.
	bad := append([]byte(nil), raw...)
	bad[16] = 0xff // blockVertices low byte
	bad[17] = 0xff
	bad[18] = 0xff
	if _, err := ReadPacked(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible block directory accepted")
	}
	// A corrupt payload length must be rejected before the allocation, not
	// by a makeslice panic or OOM.
	bad = append([]byte(nil), raw...)
	for i := 24; i < 32; i++ { // payloadLen u64
		bad[i] = 0xff
	}
	if _, err := ReadPacked(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible payload length accepted")
	}
}

// The packed snapshot is the storage pillar: it must beat the fixed-width
// binary format substantially on any sparse graph.
func TestPackedSmallerThanBinary(t *testing.T) {
	g := gen.ErdosRenyi(2000, 16000, 13)
	bin, packed := BinarySize(g), PackedSize(g)
	if packed*2 >= bin {
		t.Fatalf("packed %d not < half of binary %d", packed, bin)
	}
}

func TestStorageReductionVisible(t *testing.T) {
	// A compressed graph must have a proportionally smaller snapshot; this
	// is the storage story of the paper.
	g := gen.ErdosRenyi(200, 2000, 1)
	keep := graph.NewEdgeSet(g.M())
	keep.AddBatch(0, func(e graph.EdgeID) bool { return e%2 == 0 })
	half := g.FilterEdgeSet(keep, nil)
	if BinarySize(half) >= BinarySize(g) {
		t.Fatalf("compressed snapshot not smaller: %d vs %d", BinarySize(half), BinarySize(g))
	}
}

// TestServableMinorDispatch pins that the servable image written by
// succinct.WriteServable loads through every dispatching reader — Read,
// ReadPacked, ReadAuto — and round-trips graph.Equal, while an unknown
// packed minor and the two retired ones are rejected by name.
func TestServableMinorDispatch(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"plain":    gen.ErdosRenyi(120, 600, 21),
		"weighted": gen.WithUniformWeights(gen.ErdosRenyi(80, 400, 22), 1, 9, 5),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := succinct.WriteServable(&buf, succinct.Pack(g, 0)); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			if !SniffSnapshot(raw) {
				t.Fatal("servable image not recognized by SniffSnapshot")
			}
			if h, err := Read(bytes.NewReader(raw)); err != nil || !h.Equal(g) {
				t.Fatalf("Read(servable): %v", err)
			}
			if h, err := ReadPacked(bytes.NewReader(raw)); err != nil || !h.Equal(g) {
				t.Fatalf("ReadPacked(servable): %v", err)
			}
			if h, err := ReadAuto(bytes.NewReader(raw), false); err != nil || !h.Equal(g) {
				t.Fatalf("ReadAuto(servable): %v", err)
			}
		})
	}
	// An unknown future minor must fail loudly, not misparse as minor 0.
	var buf bytes.Buffer
	if _, err := succinct.WriteServable(&buf, succinct.Pack(gen.ErdosRenyi(10, 30, 23), 0)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[6] = 9 // minor u16 low byte
	if _, err := Read(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "minor") {
		t.Fatalf("unknown packed minor: %v", err)
	}
	// The minors retired with the LEB128 list codec — 0, the compact form,
	// and 1, the servable image — are refused by every reader with the
	// version found and the version wanted, not decoded as today's layout.
	var compact bytes.Buffer
	if _, err := WritePacked(&compact, gen.ErdosRenyi(10, 30, 23)); err != nil {
		t.Fatal(err)
	}
	for minor, img := range map[byte][]byte{0: compact.Bytes(), 1: raw} {
		img[6] = minor
		want := fmt.Sprintf("version 2.%d holds LEB128 gap lists, which are no longer read; want version 2.%d", minor, minor+succinct.CompactMinor)
		for name, read := range map[string]func(io.Reader) (*graph.Graph, error){
			"Read": Read, "ReadPacked": ReadPacked,
			"ReadAuto": func(r io.Reader) (*graph.Graph, error) { return ReadAuto(r, false) },
		} {
			if _, err := read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on a v2.%d snapshot: %v; want an error naming %q", name, minor, err, want)
			}
		}
	}
}

// permutedSnapshots returns, per v2 minor, a snapshot whose header sets flag
// 4 — a pack-time vertex permutation stored in the body, which no writer
// produces any more — in front of an otherwise valid body.
func permutedSnapshots(tb testing.TB) map[uint16][]byte {
	tb.Helper()
	g := gen.ErdosRenyi(30, 120, 29)
	var compact, servable bytes.Buffer
	if _, err := WritePacked(&compact, g); err != nil {
		tb.Fatal(err)
	}
	if _, err := succinct.WriteServable(&servable, succinct.Pack(g, 0)); err != nil {
		tb.Fatal(err)
	}
	out := map[uint16][]byte{}
	for _, raw := range [][]byte{compact.Bytes(), servable.Bytes()} {
		h, _ := succinct.ParseSnapshotHeader(raw)
		h.Permuted = true
		out[h.Minor] = append(h.Append(nil), raw[succinct.SnapshotHeaderSize:]...)
	}
	return out
}

// TestPermutedSnapshotRefused: a v2 snapshot of either minor whose header
// declares a stored vertex permutation is refused by every reader with an
// error that names the permutation, never decoded.
func TestPermutedSnapshotRefused(t *testing.T) {
	for minor, img := range permutedSnapshots(t) {
		want := fmt.Sprintf("version 2.%d stores a vertex permutation", minor)
		for name, read := range map[string]func(io.Reader) (*graph.Graph, error){
			"Read": Read, "ReadPacked": ReadPacked,
			"ReadAuto": func(r io.Reader) (*graph.Graph, error) { return ReadAuto(r, false) },
		} {
			if _, err := read(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s on a permuted v2.%d snapshot: %v; want an error naming %q", name, minor, err, want)
			}
		}
	}
}

// TestReadEdgeListLongLine pins the unbounded-line fix: a single line far
// beyond the old 1 MiB scanner buffer must parse, and errors past it must
// still carry the right line number.
func TestReadEdgeListLongLine(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# padded comment ")
	sb.WriteString(strings.Repeat("x", 2<<20))
	sb.WriteString("\n0 ")
	sb.WriteString(strings.Repeat(" ", 2<<20)) // >1MiB of mid-line padding
	sb.WriteString("1\n2 3")                   // unterminated final line
	g, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatalf("long lines rejected: %v", err)
	}
	if g.N() != 4 || g.M() != 2 {
		t.Fatalf("n=%d m=%d, want 4, 2", g.N(), g.M())
	}
	bad := sb.String() + "\nnot numbers\n"
	if _, err := ReadEdgeList(strings.NewReader(bad), false); err == nil ||
		!strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error after long line lost its line number: %v", err)
	}
}

// TestSnapshotBodySizeBound pins the allocation bound: a header that
// declares sections larger than the whole source must be rejected before
// anything is allocated, for both snapshot versions.
func TestSnapshotBodySizeBound(t *testing.T) {
	g := gen.WithUniformWeights(gen.ErdosRenyi(50, 200, 25), 1, 3, 7)
	var v1, v2 bytes.Buffer
	if _, err := WriteBinary(&v1, g); err != nil {
		t.Fatal(err)
	}
	if _, err := WritePacked(&v2, g); err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{"binary": v1.Bytes(), "packed": v2.Bytes()} {
		bad := append([]byte(nil), raw...)
		// Inflate the header's edge count: the weighted body now claims
		// gigabytes of records/weights the source cannot possibly hold.
		bad[12], bad[13], bad[14], bad[15] = 0xff, 0xff, 0xff, 0x3f
		_, err := Read(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "source holds only") {
			t.Fatalf("%s: inflated edge count not caught by the size bound: %v", name, err)
		}
	}
}

// FuzzReadSnapshot drives the whole-snapshot surface — header dispatch,
// both v2 minors, the v1 body, the edge-list fallback — with arbitrary
// bytes: whatever the input, the readers must return, never panic or
// over-allocate (the bytes.Reader source size bounds every section).
func FuzzReadSnapshot(f *testing.F) {
	g := gen.ErdosRenyi(30, 120, 27)
	w := gen.WithUniformWeights(gen.ErdosRenyi(20, 60, 28), 1, 4, 3)
	for _, gg := range []*graph.Graph{g, w} {
		var bin, packed, servable bytes.Buffer
		if _, err := WriteBinary(&bin, gg); err != nil {
			f.Fatal(err)
		}
		if _, err := WritePacked(&packed, gg); err != nil {
			f.Fatal(err)
		}
		if _, err := succinct.WriteServable(&servable, succinct.Pack(gg, 0)); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes())
		f.Add(packed.Bytes())
		f.Add(servable.Bytes())
	}
	f.Add([]byte("# Nodes: 4 Edges: 2\n0 1\n2 3\n"))
	f.Add(permutedSnapshots(f)[succinct.CompactMinor])
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := Read(bytes.NewReader(data)); err == nil && g == nil {
			t.Fatal("Read returned nil graph without error")
		}
		if g, err := ReadAuto(bytes.NewReader(data), false); err == nil && g == nil {
			t.Fatal("ReadAuto returned nil graph without error")
		}
	})
}
