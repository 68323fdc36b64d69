package ldd

import (
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
	"slimgraph/internal/traverse"
)

// members returns the vertex list of every cluster, indexed like Centers.
func members(d *Decomposition) [][]graph.NodeID {
	idx := d.ClusterIndex()
	out := make([][]graph.NodeID, len(d.Centers))
	for v := range d.Cluster {
		out[idx[v]] = append(out[idx[v]], graph.NodeID(v))
	}
	return out
}

func TestEveryVertexClustered(t *testing.T) {
	g := gen.RMAT(10, 8, 0.57, 0.19, 0.19, 3)
	d := Decompose(g, 0.5, 1)
	for v, c := range d.Cluster {
		if c < 0 {
			t.Fatalf("vertex %d unclustered", v)
		}
		if d.Parent[v] < 0 {
			t.Fatalf("vertex %d has no parent", v)
		}
	}
}

func TestCentersSelfParent(t *testing.T) {
	g := gen.Grid2D(20, 20, false)
	d := Decompose(g, 0.8, 2)
	for _, c := range d.Centers {
		if d.Cluster[c] != c || d.Parent[c] != c {
			t.Fatalf("center %d: cluster=%d parent=%d", c, d.Cluster[c], d.Parent[c])
		}
	}
	if d.NumClusters() != len(d.Centers) {
		t.Fatal("NumClusters mismatch")
	}
}

func TestParentEdgesExistAndStayInCluster(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 5)
	d := Decompose(g, 0.7, 3)
	for v := range d.Parent {
		p := d.Parent[v]
		if p == graph.NodeID(v) {
			continue
		}
		if !g.HasEdge(p, graph.NodeID(v)) {
			t.Fatalf("parent edge (%d, %d) missing", p, v)
		}
		if d.Cluster[p] != d.Cluster[v] {
			t.Fatalf("parent of %d in different cluster", v)
		}
	}
}

// TestParentFormsForest pins the spanner's tree edges: every parent link
// but a center's self-link is an edge of the graph, the links number
// n - NumClusters, and every parent chain ends at a center — a forest of
// graph edges with one tree per cluster.
func TestParentFormsForest(t *testing.T) {
	g := gen.RMAT(9, 8, 0.57, 0.19, 0.19, 7)
	d := Decompose(g, 0.5, 11)
	links := 0
	for v, p := range d.Parent {
		if p == graph.NodeID(v) {
			continue
		}
		if !g.HasEdge(p, graph.NodeID(v)) {
			t.Fatalf("parent link (%d, %d) is not an edge", p, v)
		}
		links++
		u := graph.NodeID(v)
		for steps := 0; d.Parent[u] != u; steps++ {
			if steps > g.N() {
				t.Fatalf("parent chain of %d has a cycle", v)
			}
			u = d.Parent[u]
		}
	}
	// A forest over n vertices with c trees has n - c edges; here every
	// cluster is one tree.
	if want := g.N() - d.NumClusters(); links != want {
		t.Fatalf("forest edges %d, want %d", links, want)
	}
}

func TestLargerBetaMoreClusters(t *testing.T) {
	g := gen.Grid2D(30, 30, false)
	small := Decompose(g, 0.1, 1).NumClusters()
	large := Decompose(g, 2.0, 1).NumClusters()
	if small >= large {
		t.Fatalf("beta=0.1 gave %d clusters, beta=2 gave %d; want increase", small, large)
	}
}

func TestClusterRadiusBounded(t *testing.T) {
	// Cluster radius is bounded by the max shift, which the decomposition
	// realizes as BFS rounds. Verify by BFS from each center restricted to
	// its cluster.
	g := gen.Grid2D(25, 25, false)
	beta := BetaForSpanner(g.N(), 4)
	d := Decompose(g, beta, 9)
	idx := d.ClusterIndex()
	// Build cluster-restricted distance via parent chains.
	for v := range d.Parent {
		steps := 0
		u := graph.NodeID(v)
		for d.Parent[u] != u {
			u = d.Parent[u]
			steps++
			if steps > g.N() {
				t.Fatalf("parent chain of %d does not terminate", v)
			}
		}
		if d.Cluster[v] != u {
			t.Fatalf("parent chain of %d ends at %d, cluster says %d", v, u, d.Cluster[v])
		}
		_ = idx
	}
}

func TestClusterIndexDense(t *testing.T) {
	g := gen.ErdosRenyi(200, 600, 13)
	d := Decompose(g, 0.6, 17)
	idx := d.ClusterIndex()
	seen := make([]bool, d.NumClusters())
	for _, i := range idx {
		if int(i) >= d.NumClusters() || i < 0 {
			t.Fatalf("index %d out of range", i)
		}
		seen[i] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("cluster %d empty", i)
		}
	}
}

func TestMembersPartition(t *testing.T) {
	g := gen.RMAT(8, 6, 0.57, 0.19, 0.19, 3)
	d := Decompose(g, 0.4, 5)
	clusters := members(d)
	total := 0
	for i, mem := range clusters {
		total += len(mem)
		for _, v := range mem {
			if d.Cluster[v] != d.Centers[i] {
				t.Fatalf("vertex %d listed in wrong cluster", v)
			}
		}
	}
	if total != g.N() {
		t.Fatalf("members cover %d vertices, want %d", total, g.N())
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 3)
	a := Decompose(g, 0.5, 42)
	b := Decompose(g, 0.5, 42)
	for v := range a.Cluster {
		if a.Cluster[v] != b.Cluster[v] {
			t.Fatal("same seed, different clustering")
		}
	}
}

func TestConnectedClusters(t *testing.T) {
	// Every cluster must be connected: BFS over the cluster's internal edges
	// from its center must reach all members.
	g := gen.Grid2D(15, 15, true)
	d := Decompose(g, 0.5, 21)
	idx := d.ClusterIndex()
	for i, mem := range members(d) {
		internal := graph.NewEdgeSet(g.M())
		internal.AddBatch(0, func(e graph.EdgeID) bool {
			u, v := g.EdgeEndpoints(e)
			return int(idx[u]) == i && int(idx[v]) == i
		})
		res := traverse.BFS(g.FilterEdgeSet(internal, nil), d.Centers[i], 1)
		if res.Reached() != len(mem) {
			t.Fatalf("cluster %d disconnected: reached %d of %d", i, res.Reached(), len(mem))
		}
	}
}

func BenchmarkDecomposeRMAT13(b *testing.B) {
	g := gen.RMAT(13, 8, 0.57, 0.19, 0.19, 1)
	beta := BetaForSpanner(g.N(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g, beta, uint64(i))
	}
}
