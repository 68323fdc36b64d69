package experiments

// Figure6Spectral reproduces Figure 6 (left): relative edge reduction of
// the two spectral sparsification variants (Υ ∝ average degree vs
// Υ ∝ log n) at fixed p = 0.5 across graphs of different classes.
func Figure6Spectral(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 6 (left)",
		Title:  "edge reduction: spectral-avgdeg vs spectral-logn, p=0.5",
		Note:   "reductions differ per graph: the avg-degree variant adapts to density, log n to size",
		Header: []string{"graph", "analog", "n", "m", "red(avgdeg)", "red(logn)"},
	}
	for _, ng := range fig6Graphs(cfg) {
		avg := compress(cfg, ng.G, "spectral:p=0.5,variant=avgdeg")
		logn := compress(cfg, ng.G, "spectral:p=0.5,variant=logn")
		t.AddRow(ng.Key, ng.Note, d2(ng.G.N()), d2(ng.G.M()),
			f3(avg.EdgeReduction()), f3(logn.EdgeReduction()))
	}
	return t
}

// Figure6TR reproduces Figure 6 (right): edge reduction of plain 0.5-1-TR
// vs the CT and EO variants on five graphs.
//
// Note on shape: the paper's text says CT/EO deliver smaller m than plain
// TR, but its Listing 1 EO pseudocode is inconsistent and §6.1/Table 5
// require the protective Edge-Once semantics (at most one deletion per
// triangle, survivors shielded), under which EO/CT remove at most as many
// edges — see the schemes.TREO doc comment; AblationEO runs both readings
// side by side.
func Figure6TR(cfg Config) *Table {
	t := &Table{
		ID:     "Figure 6 (right)",
		Title:  "edge reduction: 0.5-1-TR vs CT-0.5-1-TR vs EO-0.5-1-TR",
		Note:   "variants differ consistently across graphs (see abl-eo on EO semantics)",
		Header: []string{"graph", "analog", "m", "red(basic)", "red(CT)", "red(EO)"},
	}
	graphs := table6Graphs(cfg)
	pick := []int{2, 3, 5, 9, 10} // the five most triangle-relevant analogs
	for _, i := range pick {
		ng := graphs[i]
		basic := compress(cfg, ng.G, "tr:p=0.5")
		ct := compress(cfg, ng.G, "tr-ct:p=0.5")
		eo := compress(cfg, ng.G, "tr-eo:p=0.5")
		t.AddRow(ng.Key, ng.Note, d2(ng.G.M()),
			f3(basic.EdgeReduction()), f3(ct.EdgeReduction()), f3(eo.EdgeReduction()))
	}
	return t
}
