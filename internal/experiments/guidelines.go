package experiments

// guidelines renders the §7.5 scheme-selection guidance as a table: for
// each target algorithm or property, the recommended scheme(s), derived
// from the paper's Table 3 plus the empirical findings of §7.
func guidelines(_ Config, t *Table) {
	t.Header = []string{"you care about", "use", "why"}
	t.AddRow("connected components", "EO p-1-TR or spanner",
		"both preserve #CC; uniform/spectral can disconnect")
	t.AddRow("MST weight", "max-weight p-1-TR",
		"cycle property: heaviest triangle edge is never in the MST")
	t.AddRow("shortest paths / diameter", "spanner (small k)",
		"distances stretched by at most O(k); EO-TR gives 2-spanner-like bounds")
	t.AddRow("graph spectrum, cuts, flows", "spectral sparsification",
		"per-edge probabilities preserve the Laplacian quadratic form")
	t.AddRow("triangle count", "uniform sampling",
		"T scales by the cube of the keep rate — correct in expectation, cheap")
	t.AddRow("matchings", "EO p-1-TR",
		"expected matching size >= 2/3 of the original")
	t.AddRow("coloring number", "EO p-1-TR",
		"arboricity shrinks by at most 1/3 in expectation")
	t.AddRow("betweenness centrality", "degree<=1 vertex removal",
		"leaves contribute no shortest paths between core vertices")
	t.AddRow("neighborhood queries, storage", "ε-summarization",
		"superedges + corrections bound per-vertex neighborhood error")
	t.AddRow("maximum storage reduction", "spanner (large k) or p-2-TR",
		"spanners approach spanning trees; p-2-TR removes two edges per triangle")
	t.AddRow("weighted/directed support", "check Table 2 first",
		"TR needs weights only for the max-weight variant; spanners are undirected")
}
