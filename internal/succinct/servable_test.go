package succinct

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// servableRandomGraph mirrors randomGraph but is seed-addressed so fuzz
// seed corpora can use it too.
func servableRandomGraph(seed uint64, n, m int, directed, weighted bool) *graph.Graph {
	r := rng.New(seed)
	edges := randomEdges(r, n, m, weighted)
	if weighted {
		return graph.FromWeightedEdges(n, directed, edges)
	}
	return graph.FromEdges(n, directed, edges)
}

// servableTestGraphs spans the axes the image layout branches on.
func servableTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"undirected":        servableRandomGraph(1, 501, 2400, false, false),
		"directed":          servableRandomGraph(2, 333, 1500, true, false),
		"weighted":          servableRandomGraph(3, 257, 1200, false, true),
		"directed+weighted": servableRandomGraph(4, 129, 700, true, true),
		"empty":             graph.FromEdges(0, false, nil),
		"isolated":          graph.FromEdges(97, false, nil),
		"single-edge":       graph.FromEdges(5, false, []graph.Edge{{U: 1, V: 3, W: 1}}),
		"directed-single":   graph.FromEdges(5, true, []graph.Edge{{U: 4, V: 0, W: 1}}),
	}
}

// TestServableRoundTrip pins: Pack -> AppendServable -> AttachServable is
// lossless for every graph shape, in its own IDs and degree-relabeled, the
// attached accessors agree with the heap-resident twin, and the image bytes
// are deterministic.
func TestServableRoundTrip(t *testing.T) {
	for name, base := range servableTestGraphs() {
		for _, order := range []Order{OrderNone, OrderDegree} {
			if order != OrderNone && base.N() == 0 {
				continue
			}
			t.Run(name+"/"+order.String(), func(t *testing.T) {
				g, _ := relabeled(base, order)
				pg := Pack(g, 0)
				img := AppendServable(nil, pg)
				if int64(len(img)) != ServableSize(pg) {
					t.Fatalf("image is %d bytes, ServableSize says %d", len(img), ServableSize(pg))
				}
				if img2 := AppendServable(nil, Pack(g, 3)); !bytes.Equal(img, img2) {
					t.Fatalf("image bytes differ across worker counts")
				}
				att, err := AttachServable(img)
				if err != nil {
					t.Fatalf("AttachServable: %v", err)
				}
				if err := att.Verify(0); err != nil {
					t.Fatalf("Verify: %v", err)
				}
				if hostLittleEndian && !att.payloadAliases(img) {
					t.Fatalf("attached payload does not alias the image: a heap copy happened")
				}
				assertPackedEqual(t, pg, att)
				if !att.Unpack(0).Equal(g) {
					t.Fatalf("attached Unpack is not equal to the source graph")
				}
			})
		}
	}
}

// assertPackedEqual compares every accessor of two packed graphs.
func assertPackedEqual(t *testing.T, want, got *PackedGraph) {
	t.Helper()
	if want.N() != got.N() || want.M() != got.M() || want.NumArcs() != got.NumArcs() ||
		want.Directed() != got.Directed() || want.Weighted() != got.Weighted() ||
		want.BlockVertices() != got.BlockVertices() {
		t.Fatalf("shape mismatch: want %v got %v", want, got)
	}
	var wb, gb []graph.NodeID
	for v := 0; v < want.N(); v++ {
		if want.Degree(graph.NodeID(v)) != got.Degree(graph.NodeID(v)) {
			t.Fatalf("Degree(%d) differs", v)
		}
		if want.InDegree(graph.NodeID(v)) != got.InDegree(graph.NodeID(v)) {
			t.Fatalf("InDegree(%d) differs", v)
		}
		wb = want.Neighbors(wb[:0], graph.NodeID(v))
		gb = got.Neighbors(gb[:0], graph.NodeID(v))
		if len(wb) != len(gb) {
			t.Fatalf("Neighbors(%d) length differs", v)
		}
		for i := range wb {
			if wb[i] != gb[i] {
				t.Fatalf("Neighbors(%d)[%d] differs", v, i)
			}
		}
	}
	for e := 0; e < want.M(); e++ {
		if want.EdgeWeight(graph.EdgeID(e)) != got.EdgeWeight(graph.EdgeID(e)) {
			t.Fatalf("EdgeWeight(%d) differs", e)
		}
	}
	type edge struct {
		u, v graph.NodeID
		w    float64
	}
	var we, ge []edge
	want.ForEdges(func(_ graph.EdgeID, u, v graph.NodeID, w float64) { we = append(we, edge{u, v, w}) })
	got.ForEdges(func(_ graph.EdgeID, u, v graph.NodeID, w float64) { ge = append(ge, edge{u, v, w}) })
	if len(we) != len(ge) {
		t.Fatalf("ForEdges count differs")
	}
	for i := range we {
		if we[i] != ge[i] {
			t.Fatalf("ForEdges[%d] differs: %v vs %v", i, we[i], ge[i])
		}
	}
}

// TestOpenPackedRoundTrip pins the file path: WriteServable -> OpenPacked
// serves the same graph, zero-copy on mmap platforms.
func TestOpenPackedRoundTrip(t *testing.T) {
	g := servableRandomGraph(7, 400, 2000, false, true)
	pg := Pack(g, 0)
	path := filepath.Join(t.TempDir(), "g.slim")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteServable(f, pg); err != nil {
		t.Fatalf("WriteServable: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := StatServable(path)
	if err != nil {
		t.Fatalf("StatServable: %v", err)
	}
	if info.N != g.N() || info.M != g.M() || info.Directed || !info.Weighted {
		t.Fatalf("StatServable identity wrong: %+v", info)
	}

	m, err := OpenPacked(path)
	if err != nil {
		t.Fatalf("OpenPacked: %v", err)
	}
	defer m.Close()
	if err := m.Verify(0); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	assertPackedEqual(t, pg, m.PackedGraph)
	if !m.Unpack(0).Equal(g) {
		t.Fatalf("mapped Unpack differs from the source graph")
	}
}

// TestMappedDrain pins the DELETE-under-traffic contract: Close with a
// reader in flight must not unmap until the reader releases, and new
// Acquires after Close must fail.
func TestMappedDrain(t *testing.T) {
	g := servableRandomGraph(9, 64, 200, false, false)
	path := filepath.Join(t.TempDir(), "g.slim")
	writeServableFile(t, path, Pack(g, 0))
	m, err := OpenPacked(path)
	if err != nil {
		t.Fatal(err)
	}
	release, err := m.Acquire()
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if m.Unmapped() {
		t.Fatalf("unmapped while a reader was still active")
	}
	// The active reader must still be able to walk the mapping.
	deg := 0
	for v := 0; v < m.N(); v++ {
		deg += m.Degree(graph.NodeID(v))
	}
	if deg != 2*g.M() {
		t.Fatalf("degree sum %d, want %d", deg, 2*g.M())
	}
	if _, err := m.Acquire(); err == nil {
		t.Fatalf("Acquire after Close succeeded")
	}
	release()
	if !m.Unmapped() {
		t.Fatalf("last release did not unmap")
	}
	release() // double release must be a no-op
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func writeServableFile(t *testing.T, path string, pg *PackedGraph) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteServable(f, pg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServableCorruptionRejected pins that structural corruption errors out
// of AttachServable / Verify instead of panicking or attaching garbage.
func TestServableCorruptionRejected(t *testing.T) {
	g := servableRandomGraph(11, 200, 900, false, false)
	img := AppendServable(nil, Pack(g, 0))

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 8, servableHeaderSize - 1, servableHeaderSize, len(img) / 2, len(img) - 1} {
			if _, err := AttachServable(img[:cut]); err == nil {
				t.Fatalf("AttachServable accepted a %d-byte truncation", cut)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := bytes.Clone(img)
		bad[0] ^= 0xff
		if _, err := AttachServable(bad); err == nil {
			t.Fatalf("AttachServable accepted a bad magic")
		}
	})
	t.Run("wrong-minor", func(t *testing.T) {
		// The retired minors (0: compact, 1: servable, both with LEB128
		// lists), the compact form of today and a minor nobody wrote: every
		// one is refused by an error that names the version found and the
		// version wanted, by AttachServable, StatServable and OpenPacked
		// alike, and is never decoded as the current layout.
		for minor, want := range map[byte]string{
			0: "version 2.0 holds LEB128 gap lists", 1: "version 2.1 holds LEB128 gap lists",
			CompactMinor: "version 2.2 has another minor", 9: "version 2.9 has another minor",
		} {
			bad := bytes.Clone(img)
			bad[6] = minor
			path := filepath.Join(t.TempDir(), "old.sgp")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, attachErr := AttachServable(bad)
			_, statErr := StatServable(path)
			m, openErr := OpenPacked(path)
			if openErr == nil {
				m.Close()
			}
			for reader, err := range map[string]error{"AttachServable": attachErr, "StatServable": statErr, "OpenPacked": openErr} {
				if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "version 2.3") {
					t.Errorf("%s on a minor-%d header: %v; want an error naming %q and version 2.3", reader, minor, err, want)
				}
			}
			if IsServable(bad) {
				t.Errorf("IsServable accepts a minor-%d header", minor)
			}
		}
	})
	t.Run("permuted", func(t *testing.T) {
		// Flag 4 declared a stored vertex permutation; no reader decodes one
		// any more, so each refuses the header by naming it.
		bad := bytes.Clone(img)
		h, _ := ParseSnapshotHeader(bad)
		h.Permuted = true
		h.Append(bad[:0])
		path := filepath.Join(t.TempDir(), "permuted.sgp")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		_, attachErr := AttachServable(bad)
		_, statErr := StatServable(path)
		m, openErr := OpenPacked(path)
		if openErr == nil {
			m.Close()
		}
		for reader, err := range map[string]error{"AttachServable": attachErr, "StatServable": statErr, "OpenPacked": openErr} {
			if err == nil || !strings.Contains(err.Error(), "version 2.3 stores a vertex permutation") {
				t.Errorf("%s on a flag-4 header: %v; want an error naming the permutation", reader, err)
			}
		}
	})
	t.Run("payload-corruption-caught-by-verify", func(t *testing.T) {
		bad := bytes.Clone(img)
		// Flip bytes near the end of the payload; attach may accept (it does
		// not decode) but Verify must reject.
		l, err := parseServableHeader(bad)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 16 && l.payload+i < l.payload+l.payloadLen; i++ {
			bad[l.payload+i] ^= 0xa5
		}
		pg, err := AttachServable(bad)
		if err != nil {
			return // rejected at attach: also fine
		}
		if err := pg.Verify(0); err == nil {
			t.Fatalf("Verify accepted corrupted payload bytes")
		}
	})
}

// A verified image must unpack: Verify refuses the one list DecodeList
// accepts and the graph builder does not, a self-loop.
func TestVerifyRejectsSelfLoop(t *testing.T) {
	for _, directed := range []bool{false, true} {
		pg := Pack(graph.FromEdges(3, directed, []graph.Edge{{U: 0, V: 1, W: 1}}), 1)
		if err := pg.Verify(1); err != nil {
			t.Fatalf("directed=%v: control: %v", directed, err)
		}
		bad := *pg
		bad.payload = bytes.Clone(pg.payload)
		bad.payload[1] = 0 // vertex 0's first neighbor: itself
		if err := bad.Verify(1); err == nil {
			t.Fatalf("directed=%v: Verify accepted a self-loop", directed)
		}
	}
}

// FuzzAttachServable feeds arbitrary bytes to the attach + verify path:
// whatever the input, it must return (never panic), nothing whose header
// sets flag 4 (a stored permutation) attaches, and anything that attaches
// and verifies must unpack without panicking.
func FuzzAttachServable(f *testing.F) {
	for _, g := range []*graph.Graph{
		servableRandomGraph(1, 40, 160, false, false),
		servableRandomGraph(2, 30, 90, true, true),
	} {
		f.Add(AppendServable(nil, Pack(g, 0)))
		rg, _ := relabeled(g, OrderDegree)
		f.Add(AppendServable(nil, Pack(rg, 0)))
	}
	f.Add([]byte{})
	permuted := AppendServable(nil, Pack(servableRandomGraph(1, 40, 160, false, false), 0))
	permuted[5] |= 4 // header flag 4: a stored vertex permutation
	f.Add(permuted)
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, err := AttachServable(data)
		if err != nil {
			return
		}
		if data[5]&4 != 0 {
			t.Fatal("attached an image whose header declares a stored vertex permutation")
		}
		if err := pg.Verify(0); err != nil {
			return
		}
		g := pg.Unpack(0)
		if g.N() != pg.N() || g.M() != pg.M() {
			t.Fatalf("verified image unpacked to n=%d m=%d, header says n=%d m=%d",
				g.N(), g.M(), pg.N(), pg.M())
		}
	})
}
