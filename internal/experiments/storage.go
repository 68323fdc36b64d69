package experiments

import (
	"fmt"

	"slimgraph/internal/gen"
	"slimgraph/internal/graphio"
	"slimgraph/internal/succinct"
	"slimgraph/internal/traverse"
)

// Storage reproduces the §5 storage experiment: lossy schemes composed with
// the succinct (v2 packed) lossless representation, per graph. Each row
// reports the v1 binary and v2 packed footprints of the compressed output,
// the packed:binary ratio, packed bits per remaining edge, the combined
// reduction against the uncompressed input, and the slowdown of BFS
// traversing the PackedGraph in place versus the raw CSR.
func Storage(cfg Config) *Table {
	t := &Table{
		ID:    "storage",
		Title: "§5 storage: packed (v2) snapshots + in-place packed-BFS slowdown",
		Note: "lossy edge reduction × gap-encoded lossless form compose; the paper " +
			"reports storage reductions from exactly this composition, with packed " +
			"traversal staying within a small factor of raw (Log(Graph)-style)",
		Header: []string{"graph", "scheme", "m", "binKB", "packKB", "pack:bin",
			"bits/edge", "vs input", "bfs raw", "bfs packed", "slowdown"},
	}
	b := cfg.boost()
	graphs := []NamedGraph{
		{"s-pok", "R-MAT social ef16", gen.RMAT(cfg.rmatScale(11), 16, 0.57, 0.19, 0.19, cfg.seed()+91)},
		{"s-frs", "Barabási–Albert k=8", gen.BarabasiAlbert(3000*b, 8, cfg.seed()+92)},
		{"v-usa", "2-D grid road network", gen.Grid2D(45*b, 45*b, false)},
	}
	specs := []string{"none", "uniform:p=0.5", "tr-eo:p=0.8", "spanner:k=8"}
	for _, ng := range graphs {
		inB := graphio.BinarySize(ng.G)
		for _, spec := range specs {
			out := ng.G
			if spec != "none" {
				out = compress(cfg, ng.G, spec).Output
			}
			binB := graphio.BinarySize(out)
			packB := graphio.PackedSize(out)
			pg := succinct.Pack(out, cfg.Workers)
			raw := measure(func() { traverse.BFS(out, 0, cfg.Workers) })
			packed := measure(func() { traverse.BFS(pg, 0, cfg.Workers) })
			bitsPerEdge := 0.0
			if out.M() > 0 {
				bitsPerEdge = float64(packB) * 8 / float64(out.M())
			}
			slow := "-"
			if raw > 0 {
				slow = fmt.Sprintf("%.2fx", float64(packed)/float64(raw))
			}
			t.AddRow(ng.Key, spec, d2(out.M()),
				d2(int(binB/1024)), d2(int(packB/1024)),
				f1(float64(binB)/float64(packB))+"x",
				f1(bitsPerEdge),
				f1(float64(inB)/float64(packB))+"x",
				raw.String(), packed.String(), slow)
		}
	}
	return t
}
