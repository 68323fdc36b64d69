package succinct

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/core"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
	"slimgraph/internal/triangles"
)

// TestAccessorsAgreeOnCorruptedPayloads is the differential test of the
// corrupt-input contract in doc.go. It damages copies of packed graphs —
// byte flips anywhere in a payload, length headers overwritten with lengths
// from one to beyond 2^34, gaps no reader accepts planted mid-list, a width
// byte no group has (32–255) planted over a real one, the payload cut short
// so that groups and gaps run into its end, and cut right behind a group so
// that a valid group ends inside the final eight bytes — and then reads
// every vertex through every accessor. Whatever the damage: the bulk
// readers (Neighbors, ScanInLists) agree with each other and return a list
// only when all of it decodes; the streaming reader delivers exactly the
// neighbors in front of the first damage, which is the whole list whenever
// the bulk readers return one; the early-exit probe answers a linear search
// of what the streaming reader would deliver; Degree and InDegree answer
// from the header alone; and nothing panics or reads outside the payload.
func TestAccessorsAgreeOnCorruptedPayloads(t *testing.T) {
	rmat10, grid32 := gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77), gen.Grid2D(32, 32, true)
	inputs := map[string]*graph.Graph{
		"rmat10": rmat10, "rmat10-directed": directedTwin(rmat10),
		"grid32": grid32, "grid32-directed": directedTwin(grid32),
	}
	const copies, perCopy = 80, 5 // 4 graphs x 80 x 5 = 1600 corruptions
	lengths := []uint64{1, 2, 8, 9, 31, 127, 128, 1000, 1 << 14, 1 << 20, 1 << 34, 1<<63 | 1}
	// Damage in the middle of a list: a gap of 2^32, and an overlong varint.
	wide := [][]byte{{0x80, 0x80, 0x80, 0x80, 0x10}, slices.Repeat([]byte{0x80}, MaxVarintLen+1)}
	for name, g := range inputs {
		pg := Pack(g, 0)
		r := rng.New(97)
		for c := 0; c < copies; c++ {
			bad := *pg
			bad.payload = slices.Clone(pg.payload)
			bad.inPayload = slices.Clone(pg.inPayload)
			for k := 0; k < perCopy; k++ {
				payload, start := &bad.payload, bad.start
				if bad.directed && r.Intn(2) == 1 {
					payload, start = &bad.inPayload, bad.inStart
				}
				// A vertex whose list still has its first group, and where
				// that group's width byte is; -1 on the grids, whose lists
				// are all shorter than nine entries.
				width := -1
				for try := 0; try < 32 && width < 0; try++ {
					pos := start(graph.NodeID(r.Intn(bad.n)))
					if d, p := Uvarint(*payload, pos); p > pos && d > groupSize {
						if _, q := Uvarint(*payload, p); q > p && q < len(*payload) && (*payload)[q] <= maxGroupWidth {
							width = q
						}
					}
				}
				switch kind := r.Intn(10); {
				case kind < 3:
					(*payload)[r.Intn(len(*payload))] ^= byte(1 + r.Intn(255))
				case kind < 6:
					header := AppendUvarint(nil, lengths[r.Intn(len(lengths))])
					copy((*payload)[min(start(graph.NodeID(r.Intn(bad.n))), len(*payload)):], header)
				case kind < 7:
					copy((*payload)[r.Intn(len(*payload)):], wide[r.Intn(len(wide))])
				case kind < 8 && width >= 0:
					(*payload)[width] = byte(maxGroupWidth + 1 + r.Intn(255-maxGroupWidth))
				case kind < 9 && width >= 0:
					// The group at width stays whole and ends zero to seven
					// bytes in front of the new end of the payload.
					*payload = (*payload)[:min(width+1+int((*payload)[width])+r.Intn(8), len(*payload))]
				default:
					*payload = (*payload)[:len(*payload)-r.Intn(min(40, len(*payload)))]
				}
			}
			checkAccessorsAgree(t, name, &bad, r)
		}
	}
}

// directedTwin is g with every other canonical edge turned round, directed:
// the same lists split over an out- and an in-payload.
func directedTwin(g *graph.Graph) *graph.Graph {
	edges := make([]graph.Edge, g.M())
	for e := range edges {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		if e%2 == 1 {
			u, v = v, u
		}
		edges[e] = graph.Edge{U: u, V: v, W: 1}
	}
	return graph.FromEdges(g.N(), true, edges)
}

func checkAccessorsAgree(t *testing.T, name string, pg *PackedGraph, r *rng.Rand) {
	t.Helper()
	set := bitset.New(pg.n)
	for v := 0; v < pg.n; v++ {
		if r.Intn(4) == 0 {
			set.Set(v)
		}
	}
	inPayload, inStart := pg.payload, pg.start
	if pg.directed {
		inPayload, inStart = pg.inPayload, pg.inStart
	}
	// A range scan reads lists back to back, so behind a damaged list that
	// still decodes it is out of step with the directory: it is held to
	// visiting every vertex, the per-vertex scans below to the lists.
	visited := 0
	pg.ScanInLists(0, graph.NodeID(pg.n), nil, func(graph.NodeID, []graph.NodeID) { visited++ })
	if visited != pg.n {
		t.Fatalf("%s: ScanInLists visited %d of %d vertices", name, visited, pg.n)
	}
	for i := 0; i < pg.n; i++ {
		v := graph.NodeID(i)
		// Out-lists: Degree, Neighbors, ForNeighbors.
		declared, prefix, next := decodeListRef(pg.payload, pg.start(v), v)
		whole := prefix
		if next == pg.start(v) {
			whole = nil // damaged: the bulk readers return nothing
		}
		if got := pg.Neighbors(nil, v); !slices.Equal(got, whole) {
			t.Fatalf("%s: Neighbors(%d) = %v, want %v", name, v, got, whole)
		}
		var stream []graph.NodeID
		pg.ForNeighbors(v, func(w graph.NodeID) { stream = append(stream, w) })
		if !slices.Equal(stream, prefix) {
			t.Fatalf("%s: ForNeighbors(%d) = %v, want %v", name, v, stream, prefix)
		}
		if d := pg.Degree(v); d != declared || (whole != nil && d != len(whole)) {
			t.Fatalf("%s: Degree(%d) = %d, header declares %d, list decodes to %d", name, v, d, declared, len(whole))
		}
		// In-lists: InDegree, ScanInLists, FirstInNeighborIn.
		declared, prefix, next = decodeListRef(inPayload, inStart(v), v)
		whole = prefix
		if next == inStart(v) {
			whole = nil
		}
		pg.ScanInLists(v, v+1, nil, func(_ graph.NodeID, got []graph.NodeID) {
			if !slices.Equal(got, whole) {
				t.Fatalf("%s: ScanInLists at %d = %v, want %v", name, v, got, whole)
			}
		})
		if d := pg.InDegree(v); d != declared || (whole != nil && d != len(whole)) {
			t.Fatalf("%s: InDegree(%d) = %d, header declares %d, list decodes to %d", name, v, d, declared, len(whole))
		}
		if got, want := pg.FirstInNeighborIn(v, set), firstMember(prefix, pg.n, set); got != want {
			t.Fatalf("%s: FirstInNeighborIn(%d) = %d, a linear search of %v gives %d", name, v, got, prefix, want)
		}
	}
}

// The corrupt-input contract bounds a decoded neighbor by 2^31, not by n, and
// nothing ties the lists' arcs to the header's M. triangles.NewForward reads
// a packed graph through ScanInLists and indexes by neighbor, so both kinds
// of damage must stop it with a panic naming a corrupt packed graph — the
// words Unpack uses — never with an index out of range: a list head
// rewritten so the list decodes to neighbors n and beyond, and a header that
// undercounts the edges its lists hold. Both graphs choose hub rows, so the
// arcs set as row bits must count toward M like list entries: the dense
// 90-vertex graph makes most of its vertices hubs, and the damage is
// repeated on a skewed graph where hubs are the few top-ranked vertices.
func TestForwardRefusesCorruptPayload(t *testing.T) {
	damaged := damagedPayloads(t, packCase{})
	pg, victim := hubPayload(t)
	for name, bad := range damage(t, pg, victim) {
		damaged["hub rows, "+name] = bad
	}
	for name, bad := range damaged {
		wantCorrupt(t, name+": NewForward", func() { triangles.NewForward(bad, 1) })
	}
}

// hubPayload packs rmat10 — 1024 skewed vertices, enough for NewForward to
// choose hub rows, which its arena shows by staying under what a hub-free
// one holds at least, its offsets, work prefix and m 16-bit list entries,
// 4(n+1) + 8(⌈n/64⌉+1) + 2m — with one more edge, from an isolated vertex v
// within 63 of n to v+1, so that v's list has the one-byte head damage
// rewrites.
func hubPayload(t *testing.T) (*PackedGraph, int) {
	t.Helper()
	g := gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77)
	n := g.N()
	for v := n - 63; v < n-1; v++ {
		if g.Degree(graph.NodeID(v)) != 0 {
			continue
		}
		edges := append(g.Edges(), graph.Edge{U: graph.NodeID(v), V: graph.NodeID(v + 1), W: 1})
		pg := Pack(graph.FromEdges(n, false, edges), 0)
		size, hubFree := triangles.NewForward(pg, 1).SizeBytes(), 4*int64(n+1)+8*int64((n+63)/64+1)+2*int64(pg.m)
		if size >= hubFree {
			t.Fatalf("rmat10 chose no hub rows: arena %d of a hub-free %d bytes or more", size, hubFree)
		}
		return pg, v
	}
	t.Fatal("rmat10 has no isolated vertex within 63 of n")
	return nil, 0
}

// TestInPlaceCompressRefusesCorruptPayload: an edge kernel reads a packed
// graph in place through the block decode of its canonical edges, so the
// damage of TestForwardRefusesCorruptPayload must stop an in-place compress
// exactly as it stops Unpack — with a panic naming a corrupt packed graph,
// raised in the calling goroutine at any worker count, whether the kernel
// would keep every edge or none — and never yield a graph. On the directed
// twin every out-arc is canonical, so the rewritten head keeps the block's
// edge count and only the endpoint's range gives the damage away.
func TestInPlaceCompressRefusesCorruptPayload(t *testing.T) {
	damaged := damagedPayloads(t, packCase{})
	for name, bad := range damagedPayloads(t, packCase{directed: true}) {
		damaged["directed, "+name] = bad
	}
	for name, bad := range damaged {
		for _, workers := range []int{1, 2} {
			wantCorrupt(t, name+": Unpack", func() { bad.Unpack(workers) })
			for _, keep := range []float64{0, 1} {
				wantCorrupt(t, name+": in-place compress", func() {
					sg := core.New(bad, 1, workers)
					sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
						if keep < r.Float64() {
							sg.Del(e.ID)
						}
					})
					t.Errorf("%s: kernel ran; returned %v", name, sg.Materialize())
				})
			}
		}
	}
}

// TestCanonicalReadersRefuseForwardArcPastN: hubPayload's vertex v owns one
// undirected edge, up to v+1. Rewritten to reach n, its list keeps its
// forward-arc count, so no block's edge count gives the damage away — only
// the endpoint's range does. Every canonical-edge reader must still refuse
// it as a corrupt packed graph, at any worker count.
func TestCanonicalReadersRefuseForwardArcPastN(t *testing.T) {
	pg, victim := hubPayload(t)
	bad := damage(t, pg, victim)["neighbor past n"]
	for _, workers := range []int{1, 2} {
		wantCorrupt(t, "Unpack", func() { bad.Unpack(workers) })
		wantCorrupt(t, "in-place compress", func() {
			sg := core.New(bad, 1, workers)
			sg.RunEdgeKernel(func(*core.SG, *rng.Rand, core.EdgeView) {})
			t.Errorf("kernel ran; returned %v", sg.Materialize())
		})
	}
	wantCorrupt(t, "ForEdges", func() { bad.ForEdges(func(graph.EdgeID, graph.NodeID, graph.NodeID, float64) {}) })
}

// damagedPayloads returns damage's two copies of one packed graph of the
// given case.
func damagedPayloads(t *testing.T, c packCase) map[string]*PackedGraph {
	t.Helper()
	return damage(t, Pack(randomGraph(rng.New(59), c, 90, 2400), 0, WithBlockVertices(16)), 41)
}

// damage returns two damaged copies of pg: victim's list head rewritten so
// the list decodes to neighbors n and beyond (the head and its replacement
// are one byte each, so victim lies within 63 of n), and a header that
// undercounts the edges its lists hold.
func damage(t *testing.T, pg *PackedGraph, victim int) map[string]*PackedGraph {
	t.Helper()
	v := graph.NodeID(victim)
	_, head := Uvarint(pg.payload, pg.start(v))
	past := *pg
	past.payload = slices.Clone(pg.payload)
	past.payload[head] = byte(ZigZag(int64(pg.n - victim))) // one byte, like the head it replaces
	if nb := past.Neighbors(nil, v); len(nb) != pg.Degree(v) || int(nb[0]) != pg.n {
		t.Fatalf("damaged list decodes to %v, want %d neighbors from %d", nb, pg.Degree(v), pg.n)
	}
	short := *pg
	short.m--
	return map[string]*PackedGraph{"neighbor past n": &past, "arcs past m": &short}
}

// wantCorrupt runs read and fails the test unless it panics naming a corrupt
// packed graph.
func wantCorrupt(t *testing.T, what string, read func()) {
	t.Helper()
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "corrupt packed graph") {
			t.Errorf("%s panicked with %q, want a corrupt packed graph", what, msg)
		}
	}()
	read()
}
