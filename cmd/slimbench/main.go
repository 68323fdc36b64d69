// Command slimbench regenerates the tables and figures of the paper's
// evaluation section on synthetic dataset analogs. It declares no artifact of
// its own: experiments.Artifacts is the list, each entry a graph set, labelled
// registry specs and columns over the typed rows one evaluator measures, and
// every artifact prints as an aligned text table with a "paper shape" note
// describing what the original reported, so the comparison is on the page.
// It is the paper-evaluation CLI and nothing else: performance is measured by
// benchmark/ (bash benchmark/run.sh), the repository's one perf harness.
//
// Usage:
//
//	slimbench                      # everything at scale 1
//	slimbench -scale 0             # quick smoke run
//	slimbench -list                # the artifact keys
//	slimbench -only table5,fig7    # a subset (guidelines is the §7.5 guide)
//	slimbench -compare "uniform:p=0.5;tr-eo:p=0.8|spanner:k=8"
//	                               # arbitrary registry specs side by side
//	slimbench -frontier            # every registered scheme swept over its
//	                               # parameter table, as JSON rows plus the
//	                               # Pareto sets against packed bits/edge
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"slimgraph/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Int("scale", 1, "0 = smoke, 1 = default, 2 = large")
		seed     = fs.Uint64("seed", 0, "base seed (0 = built-in default)")
		workers  = fs.Int("workers", 0, "parallelism (0 = all CPUs)")
		only     = fs.String("only", "", "comma-separated subset, e.g. table5,fig7")
		list     = fs.Bool("list", false, "list artifact keys and exit")
		frontier = fs.Bool("frontier", false, "sweep every registered scheme; print rows and Pareto sets as JSON")
		compare  = fs.String("compare", "",
			"semicolon-separated registry specs (schemes or pipelines) to compare, e.g. "+
				`"uniform:p=0.5;tr-eo:p=0.8|spanner:k=8"`)
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "slimbench: "+format+"\n", a...)
		return 1
	}
	if *list {
		for _, a := range experiments.Artifacts {
			fmt.Fprintf(stdout, "%-11s %s: %s\n", a.Key, a.ID, a.Title)
		}
		return 0
	}
	modes := 0
	for _, set := range []bool{*only != "", *compare != "", *frontier} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		return fail("-only, -compare and -frontier exclude each other")
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Workers: *workers}
	if *frontier {
		f, err := experiments.MeasureFrontier(cfg)
		if err != nil {
			return fail("%v", err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(f); err != nil {
			return fail("%v", err)
		}
		return 0
	}
	selected := experiments.Artifacts
	if *compare != "" {
		var specs []string
		for _, s := range strings.Split(*compare, ";") {
			if s = strings.TrimSpace(s); s != "" {
				specs = append(specs, s)
			}
		}
		selected = []experiments.Artifact{experiments.Compare(specs)}
	} else if *only != "" {
		want := map[string]bool{}
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
		selected = nil
		for _, a := range experiments.Artifacts {
			if want[a.Key] {
				selected = append(selected, a)
				delete(want, a.Key)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for k := range want {
				unknown = append(unknown, fmt.Sprintf("%q", k))
			}
			sort.Strings(unknown)
			return fail("unknown -only key(s) %s; -list prints the known ones", strings.Join(unknown, ", "))
		}
	}
	for _, a := range selected {
		fmt.Fprintf(stderr, "running %s: %s...\n", a.ID, a.Title)
		t, err := a.Table(cfg)
		if err != nil {
			return fail("%v", err)
		}
		t.Fprint(stdout)
	}
	return 0
}
