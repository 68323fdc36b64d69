package traverse

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"slimgraph/internal/bitset"
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/succinct"
)

// queueBFS is the textbook serial search the kernel's levels are held to.
func queueBFS(g *graph.Graph, root graph.NodeID) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[root] = 0
	for queue := []graph.NodeID{root}; len(queue) > 0; queue = queue[1:] {
		for _, v := range g.Neighbors(queue[0]) {
			if dist[v] < 0 {
				dist[v] = dist[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// A bfsShape is one graph the direction switch has to get right.
type bfsShape struct {
	name string
	g    *graph.Graph
	root graph.NodeID
	up   int // +1: some level must go bottom-up; -1: none may
}

// bfsShapes: skewed graphs whose middle levels go bottom-up (the directed one
// with in-lists that differ from its out-lists), high-diameter ones that must
// not, a hub, an unreachable part, and the degenerate single vertex.
func bfsShapes() []bfsShape {
	return []bfsShape{
		{"rmat10", gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3), 0, +1},
		{"grid32", gen.Grid2D(32, 32, true), 40, -1},
		{"path", gen.Path(700), 0, -1},
		{"star", gen.Star(500), 7, 0},
		{"two components", graph.FromEdges(9, false, []graph.Edge{
			graph.E(0, 1), graph.E(1, 2), graph.E(2, 0), graph.E(2, 3), graph.E(5, 6), graph.E(6, 7)}), 1, 0},
		{"directed random", gen.RMATDirected(9, 8, 0.57, 0.19, 0.19, 11), 5, +1},
		{"single vertex", graph.FromEdges(1, false, nil), 0, 0},
	}
}

// TestBFSMatchesQueueBFS: on every shape × {raw CSR, Pack, OpenPacked
// mapping} × workers {1, 2, 7} the levels are the queue search's and the
// tree validates against the raw graph; at one worker the parents are the
// same on all three representations.
func TestBFSMatchesQueueBFS(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range bfsShapes() {
		pg := succinct.Pack(tc.g, 0)
		path := filepath.Join(dir, fmt.Sprintf("%d.slim", i))
		if err := os.WriteFile(path, succinct.AppendServable(nil, pg), 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := succinct.OpenPacked(path)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		want := queueBFS(tc.g, tc.root)
		var rawParent []graph.NodeID
		for r, a := range []graph.Adjacency{tc.g, pg, m.PackedGraph} {
			rep := []string{"raw", "packed", "mapped"}[r]
			for _, workers := range []int{1, 2, 7} {
				res := BFS(a, tc.root, workers)
				if !slices.Equal(res.Dist, want) {
					t.Errorf("%s on %s at %d workers: levels differ from the queue search's", tc.name, rep, workers)
				}
				if err := ValidateTree(tc.g, res, tc.root); err != nil {
					t.Errorf("%s on %s at %d workers: %v", tc.name, rep, workers, err)
				}
				if workers != 1 {
					continue
				}
				if rawParent == nil {
					rawParent = res.Parent
				} else if !slices.Equal(res.Parent, rawParent) {
					t.Errorf("%s on %s at one worker: parents differ from the raw CSR's", tc.name, rep)
				}
			}
		}
	}
}

// probeCounter counts the bottom-up questions a search asks.
type probeCounter struct {
	*graph.Graph
	probes int
}

func (c *probeCounter) FirstInNeighborIn(v graph.NodeID, set *bitset.Bits) graph.NodeID {
	c.probes++
	return c.Graph.FirstInNeighborIn(v, set)
}

// TestBFSTakesBothDirections: the skewed graph's heavy levels go bottom-up,
// and a path — one light frontier after another — never asks.
func TestBFSTakesBothDirections(t *testing.T) {
	for _, tc := range bfsShapes() {
		c := &probeCounter{Graph: tc.g}
		BFS(c, tc.root, 1)
		if tc.up > 0 && c.probes == 0 {
			t.Errorf("%s: no level went bottom-up", tc.name)
		}
		if tc.up < 0 && c.probes != 0 {
			t.Errorf("%s: %d bottom-up probes on a high-diameter graph", tc.name, c.probes)
		}
	}
}

// degreeReads records the vertices whose degree a search reads, in order.
type degreeReads struct {
	*graph.Graph
	read []graph.NodeID
}

func (c *degreeReads) Degree(v graph.NodeID) int {
	c.read = append(c.read, v)
	return c.Graph.Degree(v)
}

// TestBFSSwitchReadsNoDegreeSweep: the direction switch reads the degree of
// each vertex of a frontier it examines and takes the unvisited sum from the
// arc count, so on the skewed rmat14 — whose levels do go bottom-up — the
// degrees a one-worker search reads are frontier vertices', level by level,
// each at most once: no pass over the unvisited vertices, from any of 16
// roots.
func TestBFSSwitchReadsNoDegreeSweep(t *testing.T) {
	g := gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77)
	n := g.N()
	wentUp := false
	for i := range 16 {
		root := graph.NodeID(i * n / 16)
		c := &degreeReads{Graph: g}
		p := &probeCounter{Graph: g}
		res := BFS(c, root, 1)
		BFS(p, root, 1)
		wentUp = wentUp || p.probes > 0
		if !slices.Equal(res.Dist, queueBFS(g, root)) {
			t.Fatalf("root %d: levels differ from the queue search's", root)
		}
		seen := make([]bool, n)
		level := int32(0)
		for k, v := range c.read {
			if d := res.Dist[v]; d < level || seen[v] {
				t.Fatalf("root %d: read %d is the degree of vertex %d at level %d after level %d (seen before: %v) — not a frontier",
					root, k, v, d, level, seen[v])
			}
			level, seen[v] = res.Dist[v], true
		}
	}
	if !wentUp {
		t.Fatal("no search went bottom-up: the switch was never asked")
	}
}
