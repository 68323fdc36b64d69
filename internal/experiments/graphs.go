package experiments

import (
	"slimgraph/internal/gen"
	"slimgraph/internal/graph"
)

// NamedGraph pairs a generated analog with the paper dataset it stands for.
type NamedGraph struct {
	Key  string // the paper's dataset symbol (Table 4)
	Note string // generator used as the analog
	G    *graph.Graph
	// Workers, when set, overrides Config.Workers on this graph: Figure 8's
	// simulated rank count.
	Workers int
}

// pick narrows a graph set to the given indices.
func pick(set func(Config) []NamedGraph, idx ...int) func(Config) []NamedGraph {
	return func(cfg Config) []NamedGraph {
		all := set(cfg)
		out := make([]NamedGraph, len(idx))
		for i, j := range idx {
			out[i] = all[j]
		}
		return out
	}
}

// fig5Graphs returns the three graphs of Figure 5, chosen like the paper's
// to span triangle densities (T/n of s-cds=1052, s-pok=20, v-ewk=80).
func fig5Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "s-cds", Note: "planted communities (very high T/n)", G: gen.PlantedPartition(600*b, 25, 0.6, 600*b, cfg.seed()+1)},
		{Key: "s-pok", Note: "R-MAT social (moderate T/n)", G: gen.RMAT(cfg.rmatScale(10), 12, 0.57, 0.19, 0.19, cfg.seed()+2)},
		{Key: "v-ewk", Note: "Barabási–Albert (skewed, mid T/n)", G: gen.BarabasiAlbert(1500*b, 8, cfg.seed()+3)},
	}
}

// table5Graphs returns analogs of the five Table 5 graphs.
func table5Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "s-you", Note: "R-MAT sparse social", G: gen.RMAT(cfg.rmatScale(10), 3, 0.57, 0.19, 0.19, cfg.seed()+11)},
		{Key: "h-hud", Note: "R-MAT hyperlink", G: gen.RMAT(cfg.rmatScale(10), 8, 0.45, 0.22, 0.22, cfg.seed()+12)},
		{Key: "l-dbl", Note: "Watts–Strogatz collaboration", G: gen.WattsStrogatz(1500*b, 10, 0.2, cfg.seed()+13)},
		{Key: "v-skt", Note: "R-MAT internet topology", G: gen.RMAT(cfg.rmatScale(10), 6, 0.57, 0.19, 0.19, cfg.seed()+14)},
		{Key: "v-usa", Note: "2-D grid road network", G: gen.Grid2D(40*b, 40*b, false)},
	}
}

// table6Graphs returns analogs of the twelve Table 6 graphs, spanning
// triangle densities from road-like to community-heavy.
func table6Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "s-you", Note: "R-MAT ef3", G: gen.RMAT(cfg.rmatScale(9), 3, 0.57, 0.19, 0.19, cfg.seed()+21)},
		{Key: "s-flx", Note: "R-MAT ef3 mild", G: gen.RMAT(cfg.rmatScale(9), 3, 0.5, 0.2, 0.2, cfg.seed()+22)},
		{Key: "s-flc", Note: "planted dense communities", G: gen.PlantedPartition(400*b, 40, 0.6, 400*b, cfg.seed()+23)},
		{Key: "s-cds", Note: "planted denser communities", G: gen.PlantedPartition(400*b, 50, 0.7, 400*b, cfg.seed()+24)},
		{Key: "s-lib", Note: "log-normal heavy tail", G: gen.LogNormalDegreeGraph(1000*b, 2.2, 1.1, cfg.seed()+25)},
		{Key: "s-pok", Note: "R-MAT ef12", G: gen.RMAT(cfg.rmatScale(9), 12, 0.57, 0.19, 0.19, cfg.seed()+26)},
		{Key: "h-dbp", Note: "R-MAT hyperlink", G: gen.RMAT(cfg.rmatScale(9), 4, 0.45, 0.22, 0.22, cfg.seed()+27)},
		{Key: "h-hud", Note: "R-MAT hyperlink denser", G: gen.RMAT(cfg.rmatScale(9), 8, 0.45, 0.22, 0.22, cfg.seed()+28)},
		{Key: "l-cit", Note: "Watts–Strogatz beta=0.5", G: gen.WattsStrogatz(1000*b, 8, 0.5, cfg.seed()+29)},
		{Key: "l-dbl", Note: "Watts–Strogatz beta=0.1", G: gen.WattsStrogatz(1000*b, 10, 0.1, cfg.seed()+30)},
		{Key: "v-ewk", Note: "Barabási–Albert k=8", G: gen.BarabasiAlbert(1000*b, 8, cfg.seed()+31)},
		{Key: "v-skt", Note: "R-MAT ef6", G: gen.RMAT(cfg.rmatScale(9), 6, 0.57, 0.19, 0.19, cfg.seed()+32)},
	}
}

// fig6Graphs returns the wider graph spread of Figure 6 (left).
func fig6Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "h-dar", Note: "R-MAT ef8", G: gen.RMAT(cfg.rmatScale(9), 8, 0.45, 0.22, 0.22, cfg.seed()+41)},
		{Key: "h-wdb", Note: "R-MAT ef16", G: gen.RMAT(cfg.rmatScale(9), 16, 0.45, 0.22, 0.22, cfg.seed()+42)},
		{Key: "h-wen", Note: "log-normal", G: gen.LogNormalDegreeGraph(1200*b, 2.0, 1.0, cfg.seed()+43)},
		{Key: "l-act", Note: "planted communities", G: gen.PlantedPartition(500*b, 30, 0.5, 800*b, cfg.seed()+44)},
		{Key: "m-twt", Note: "R-MAT skewed ef10", G: gen.RMAT(cfg.rmatScale(9), 10, 0.6, 0.18, 0.18, cfg.seed()+45)},
		{Key: "s-frs", Note: "Barabási–Albert k=10", G: gen.BarabasiAlbert(1200*b, 10, cfg.seed()+46)},
		{Key: "s-ljn", Note: "R-MAT ef9", G: gen.RMAT(cfg.rmatScale(9), 9, 0.57, 0.19, 0.19, cfg.seed()+47)},
		{Key: "s-ork", Note: "Watts–Strogatz k=14", G: gen.WattsStrogatz(1000*b, 14, 0.15, cfg.seed()+48)},
		{Key: "v-wbb", Note: "grid with diagonals", G: gen.Grid2D(35*b, 35*b, true)},
	}
}

// fig7Graphs returns the three power-law graphs of Figure 7.
func fig7Graphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "m-twt", Note: "R-MAT skewed ef16", G: gen.RMAT(cfg.rmatScale(10), 16, 0.6, 0.18, 0.18, cfg.seed()+51)},
		{Key: "s-frs", Note: "Barabási–Albert k=12", G: gen.BarabasiAlbert(2000*b, 12, cfg.seed()+52)},
		{Key: "h-dit", Note: "log-normal heavy tail", G: gen.LogNormalDegreeGraph(2000*b, 2.4, 1.2, cfg.seed()+53)},
	}
}

// fig8Graphs returns the "largest" local graphs for the distributed run.
func fig8Graphs(cfg Config) []NamedGraph {
	return []NamedGraph{
		{Key: "h-wdc", Note: "R-MAT ef16 (largest local)", Workers: 16,
			G: gen.RMAT(cfg.rmatScale(12), 16, 0.57, 0.19, 0.19, cfg.seed()+61)},
		{Key: "h-deu", Note: "R-MAT ef12", Workers: 8,
			G: gen.RMAT(cfg.rmatScale(12), 12, 0.45, 0.22, 0.22, cfg.seed()+62)},
		{Key: "h-duk", Note: "R-MAT ef8", Workers: 4,
			G: gen.RMAT(cfg.rmatScale(11), 8, 0.5, 0.2, 0.2, cfg.seed()+63)},
	}
}

// table2Graph is the one R-MAT graph the remaining-edge formulas are checked on.
func table2Graph(cfg Config) []NamedGraph {
	return []NamedGraph{{Key: "rmat", Note: "R-MAT ef10",
		G: gen.RMAT(cfg.rmatScale(10), 10, 0.57, 0.19, 0.19, cfg.seed()+81)}}
}

// table3Graph is the planted-partition graph whose twelve properties Table 3 tracks.
func table3Graph(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{{Key: "planted", Note: "planted communities",
		G: gen.PlantedPartition(300*b, 25, 0.5, 450*b, cfg.seed()+71)}}
}

// timingGraph is triangle-rich (T/m >> 1), where the paper's asymptotic
// ordering of compression times is visible at laptop scale.
func timingGraph(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{{Key: "planted", Note: "planted dense communities",
		G: gen.PlantedPartition(400*b, 40, 0.7, 600*b, cfg.seed()+101)}}
}

// weightedGraphs returns the §7.1 weighted analogs: a road network and two
// denser graphs.
func weightedGraphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "v-usa", Note: "weighted 2-D grid (road)", G: gen.WithUniformWeights(
			gen.Grid2D(40*b, 40*b, false), 1, 100, cfg.seed()+91)},
		{Key: "v-ewk", Note: "weighted Barabási–Albert", G: gen.WithUniformWeights(
			gen.BarabasiAlbert(1500*b, 8, cfg.seed()+92), 1, 100, cfg.seed()+93)},
		{Key: "s-cds", Note: "weighted planted communities", G: gen.WithUniformWeights(
			gen.PlantedPartition(500*b, 25, 0.6, 500*b, cfg.seed()+94), 1, 100, cfg.seed()+95)},
	}
}

// cutGraphs returns bottleneck graphs whose min cut is planted.
func cutGraphs(cfg Config) []NamedGraph {
	b := cfg.boost()
	return []NamedGraph{
		{Key: "2-clique/3", Note: "two cliques, 3 bridges", G: bottleneckGraph(10*b, 3)},
		{Key: "2-clique/8", Note: "two cliques, 8 bridges", G: bottleneckGraph(10*b, 8)},
		{Key: "ring-of-cliques", Note: "clique ring, 2-edge seams", G: cliqueRing(8, 6*b)},
	}
}

// frontierGraphs returns the two graphs internal/schemes/golden_test.go pins
// every scheme on (their small forms at smoke scale); the seed is theirs,
// not the Config's.
func frontierGraphs(cfg Config) []NamedGraph {
	if cfg.Scale <= 0 {
		return []NamedGraph{
			{Key: "rmat10", Note: "R-MAT scale 10 ef16", G: gen.RMAT(10, 16, 0.57, 0.19, 0.19, 77)},
			{Key: "grid32", Note: "32x32 grid with diagonals", G: gen.Grid2D(32, 32, true)},
		}
	}
	return []NamedGraph{
		{Key: "rmat14", Note: "R-MAT scale 14 ef16", G: gen.RMAT(14, 16, 0.57, 0.19, 0.19, 77)},
		{Key: "grid128", Note: "128x128 grid with diagonals", G: gen.Grid2D(128, 128, true)},
	}
}

// bottleneckGraph joins two cliques of size s with the given bridge count.
func bottleneckGraph(s, bridges int) *graph.Graph {
	edges := []graph.Edge{}
	for u := 0; u < s; u++ {
		for v := u + 1; v < s; v++ {
			edges = append(edges, graph.E(graph.NodeID(u), graph.NodeID(v)))
			edges = append(edges, graph.E(graph.NodeID(u+s), graph.NodeID(v+s)))
		}
	}
	for b := 0; b < bridges; b++ {
		edges = append(edges, graph.E(graph.NodeID(b%s), graph.NodeID(s+(b+1)%s)))
	}
	return graph.FromEdges(2*s, false, edges)
}

// cliqueRing links count cliques of the given size into a ring with 2-edge
// seams; the min cut is 4, the two seams that split the ring in two.
func cliqueRing(count, size int) *graph.Graph {
	edges := []graph.Edge{}
	id := func(c, v int) graph.NodeID { return graph.NodeID(c*size + v) }
	for c := 0; c < count; c++ {
		for u := 0; u < size; u++ {
			for v := u + 1; v < size; v++ {
				edges = append(edges, graph.E(id(c, u), id(c, v)))
			}
		}
		next := (c + 1) % count
		edges = append(edges, graph.E(id(c, 0), id(next, 1)))
		edges = append(edges, graph.E(id(c, 2), id(next, 3)))
	}
	return graph.FromEdges(count*size, false, edges)
}
