// Command slimbench regenerates the tables and figures of the paper's
// evaluation section on synthetic dataset analogs. Every artifact prints as
// an aligned text table with a "paper shape" note describing what the
// original reported, so the comparison is on the page. It is the
// paper-evaluation CLI and nothing else: performance is measured by
// benchmark/ (bash benchmark/run.sh), the repository's one perf harness.
//
// Usage:
//
//	slimbench                      # everything at scale 1
//	slimbench -scale 0             # quick smoke run
//	slimbench -only table5,fig7   # a subset
//	slimbench -guidelines          # just the §7.5 selection guide
//	slimbench -compare "uniform:p=0.5;tr-eo:p=0.8|spanner:k=8"
//	                               # arbitrary registry specs side by side
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"slimgraph/internal/experiments"
)

var drivers = []struct {
	key  string
	run  func(experiments.Config) *experiments.Table
	name string
}{
	{"table2", experiments.Table2, "Table 2: remaining-edge formulas"},
	{"table3", experiments.Table3, "Table 3: property bounds"},
	{"fig5", experiments.Figure5, "Figure 5: performance/storage tradeoffs"},
	{"fig6a", experiments.Figure6Spectral, "Figure 6 left: spectral variants"},
	{"fig6b", experiments.Figure6TR, "Figure 6 right: TR variants"},
	{"table5", experiments.Table5, "Table 5: PageRank KL divergence"},
	{"table6", experiments.Table6, "Table 6: triangles per vertex"},
	{"bfs", experiments.BFSCritical, "§7.2: BFS critical edges"},
	{"pairs", experiments.ReorderedPairs, "§7.2: reordered pairs"},
	{"fig7", experiments.Figure7, "Figure 7: spanner degree distributions"},
	{"fig8", experiments.Figure8, "Figure 8: distributed compression"},
	{"weighted", experiments.WeightedTR, "§7.1: weighted TR"},
	{"timing", experiments.Timing, "§7.4: compression timing"},
	{"lowrank", experiments.LowRank, "§7.4: low-rank baseline"},
	{"cuts", experiments.CutPreservation, "§6.3: min-cut preservation (+ §4.6 cut sparsifier)"},
	{"abl-eo", experiments.AblationEO, "Ablation: Edge-Once semantics"},
	{"abl-spanner", experiments.AblationSpanner, "Ablation: spanner inter-cluster rule"},
	{"abl-upsilon", experiments.AblationUpsilon, "Ablation: spectral Υ sweep"},
}

func main() {
	var (
		scale      = flag.Int("scale", 1, "0 = smoke, 1 = default, 2 = large")
		seed       = flag.Uint64("seed", 0, "base seed (0 = built-in default)")
		workers    = flag.Int("workers", 0, "parallelism (0 = all CPUs)")
		only       = flag.String("only", "", "comma-separated subset, e.g. table5,fig7")
		guidelines = flag.Bool("guidelines", false, "print only the §7.5 scheme-selection guide")
		list       = flag.Bool("list", false, "list experiment keys and exit")
		compare    = flag.String("compare", "",
			"semicolon-separated registry specs (schemes or pipelines) to compare, e.g. "+
				`"uniform:p=0.5;tr-eo:p=0.8|spanner:k=8"`)
	)
	flag.Parse()

	if *list {
		for _, d := range drivers {
			fmt.Printf("%-10s %s\n", d.key, d.name)
		}
		return
	}
	if *guidelines {
		experiments.Guidelines().Fprint(os.Stdout)
		return
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	if *compare != "" {
		var specs []string
		for _, s := range strings.Split(*compare, ";") {
			if s = strings.TrimSpace(s); s != "" {
				specs = append(specs, s)
			}
		}
		t, err := experiments.Compare(cfg, specs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slimbench:", err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
		return
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(k)] = true
		}
	}
	ran := 0
	for _, d := range drivers {
		if len(selected) > 0 && !selected[d.key] {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", d.name)
		d.run(cfg).Fprint(os.Stdout)
		ran++
	}
	if len(selected) > 0 && ran < len(selected) {
		fmt.Fprintln(os.Stderr, "warning: some -only keys matched nothing; use -list")
	}
	if len(selected) == 0 {
		experiments.Guidelines().Fprint(os.Stdout)
	}
}
