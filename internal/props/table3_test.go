package props

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

var updateTable3 = flag.Bool("update-table3", false, "rewrite testdata/table3.golden from this tree's kernels")

// TestTable3Golden pins every Table 3 measurement this package makes on a
// fixed set of seeded graphs, edge cases included, against
// testdata/table3.golden. Min cut is left out ("-") above 1000 vertices,
// where the dense Stoer–Wagner is too slow for a unit test. Regenerate with
// -update-table3 only when a kernel's answers may change.
func TestTable3Golden(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat10", gen.RMAT(10, 8, 0.57, 0.19, 0.19, 1)},
		{"ba500", gen.BarabasiAlbert(500, 3, 2)},
		{"grid16diag", gen.Grid2D(16, 16, true)},
		{"communities", gen.PlantedPartition(300, 25, 0.5, 300, 3)},
		{"complete6", gen.Complete(6)},
		{"path10", gen.Path(10)},
		{"star10", gen.Star(10)},
		{"edgeless", graph.FromEdges(7, false, nil)},
		{"rmat8weighted", gen.WithUniformWeights(gen.RMAT(8, 8, 0.57, 0.19, 0.19, 4), 1, 100, 5)},
	}
	var got bytes.Buffer
	for _, c := range graphs {
		cut := "-"
		if c.g.N() <= 1000 {
			cut = fmt.Sprintf("%.17g", StoerWagner(c.g))
		}
		forest := Kruskal(c.g)
		fmt.Fprintf(&got, "%s n=%d m=%d coloring=%d matching=%d independent=%d mincut=%s mst=%.17g trees=%d\n",
			c.name, c.g.N(), c.g.M(), ColoringNumber(c.g), MatchingSize(c.g), IndependentSetSize(c.g),
			cut, forest.Weight, forest.Trees)
	}
	const path = "testdata/table3.golden"
	if *updateTable3 {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Table 3 measurements moved:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
