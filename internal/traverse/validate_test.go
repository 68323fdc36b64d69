package traverse

import (
	"testing"
	"testing/quick"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

func TestValidateTreeAcceptsRealBFS(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := gen.ErdosRenyi(200, 500, seed)
		root := graph.NodeID(r.Intn(200))
		for _, workers := range []int{1, 4} {
			if err := ValidateTree(g, BFS(g, root, workers), root); err != nil {
				t.Logf("workers=%d: %v", workers, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeRejectsCorruption(t *testing.T) {
	g := gen.Grid2D(5, 5, false)
	base := BFS(g, 0, 1)

	// Corrupt a parent pointer to a non-edge.
	bad := &BFSResult{Parent: append([]graph.NodeID(nil), base.Parent...),
		Dist: append([]int32(nil), base.Dist...)}
	bad.Parent[24] = 0 // (0, 24) is not an edge in the grid
	if err := ValidateTree(g, bad, 0); err == nil {
		t.Fatal("accepted a phantom parent edge")
	}

	// Corrupt a level.
	bad2 := &BFSResult{Parent: append([]graph.NodeID(nil), base.Parent...),
		Dist: append([]int32(nil), base.Dist...)}
	bad2.Dist[10] += 3
	if err := ValidateTree(g, bad2, 0); err == nil {
		t.Fatal("accepted a broken level")
	}

	// Corrupt reachability.
	bad3 := &BFSResult{Parent: append([]graph.NodeID(nil), base.Parent...),
		Dist: append([]int32(nil), base.Dist...)}
	bad3.Parent[7] = -1
	if err := ValidateTree(g, bad3, 0); err == nil {
		t.Fatal("accepted disagreeing parent/dist reachability")
	}

	// Wrong root.
	if err := ValidateTree(g, base, 3); err == nil {
		t.Fatal("accepted the wrong root")
	}
}

func TestValidateTreeOnCompressedGraphBFS(t *testing.T) {
	// BFS over a compressed graph must still produce a valid tree for that
	// graph — the stage-2 contract.
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 3)
	keep := graph.NewEdgeSet(g.M())
	keep.AddBatch(0, func(e graph.EdgeID) bool { return e%2 == 0 })
	half := g.FilterEdgeSet(keep, nil)
	res := BFS(half, 0, 4)
	if err := ValidateTree(half, res, 0); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTreeDirected(t *testing.T) {
	// 0 -> 1 -> 2 -> 0: the closing arc leads from level 2 back to level 0,
	// which only an undirected edge may not do.
	cycle := graph.FromEdges(3, true, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 0)})
	res := BFS(cycle, 0, 1)
	if err := ValidateTree(cycle, res, 0); err != nil {
		t.Fatalf("3-cycle: %v", err)
	}
	// The forward rule still binds: nothing reached may point at something
	// unreached, or more than one level on.
	res.Dist[2], res.Parent[2] = -1, -1
	if err := ValidateTree(cycle, res, 0); err == nil {
		t.Fatal("accepted an arc out of the reached set")
	}
	chord := graph.FromEdges(4, true, []graph.Edge{graph.E(0, 1), graph.E(1, 2), graph.E(2, 3), graph.E(0, 3)})
	long := &BFSResult{Parent: []graph.NodeID{0, 0, 1, 2}, Dist: []int32{0, 1, 2, 3}}
	if err := ValidateTree(chord, long, 0); err == nil {
		t.Fatal("accepted an arc that skips two levels")
	}

	g := gen.RMATDirected(8, 4, 0.57, 0.19, 0.19, 17)
	for root := graph.NodeID(0); root < 20; root++ {
		for _, workers := range []int{1, 4} {
			if err := ValidateTree(g, BFS(g, root, workers), root); err != nil {
				t.Fatalf("directed random, root %d at %d workers: %v", root, workers, err)
			}
		}
	}
}
