package experiments

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"slimgraph/internal/metrics"
	"slimgraph/internal/schemes"
)

var smoke = Config{Scale: 0, Seed: 99, Workers: 2}

// checkShape measures the artifact at smoke scale, holds its rows to the
// predicate in shapes, and lays them out once so a column that cannot format
// a row fails here rather than in slimbench.
func checkShape(t *testing.T, key string) {
	t.Helper()
	for _, a := range Artifacts {
		if a.Key != key {
			continue
		}
		rows, err := a.Rows(smoke)
		if err != nil {
			t.Fatal(err)
		}
		if err := shapes[key](rows); err != nil {
			t.Fatalf("%s: %v", a.ID, err)
		}
		if tab := a.Render(smoke, rows); len(tab.Rows) == 0 || len(tab.Rows[0]) != len(tab.Header) {
			t.Fatalf("%s renders %d lines, %d cells under %d heads", a.ID, len(tab.Rows), len(tab.Rows[0]), len(tab.Header))
		}
		return
	}
	t.Fatalf("no artifact %q", key)
}

func TestTable2RowsComplete(t *testing.T)   { checkShape(t, "table2") }
func TestTable3ShapeClaims(t *testing.T)    { checkShape(t, "table3") }
func TestFigure5Shape(t *testing.T)         { checkShape(t, "fig5") }
func TestTable5Shape(t *testing.T)          { checkShape(t, "table5") }
func TestTable6Shape(t *testing.T)          { checkShape(t, "table6") }
func TestBFSCriticalShape(t *testing.T)     { checkShape(t, "bfs") }
func TestReorderedPairsShape(t *testing.T)  { checkShape(t, "pairs") }
func TestFigure7Shape(t *testing.T)         { checkShape(t, "fig7") }
func TestWeightedTRShape(t *testing.T)      { checkShape(t, "weighted") }
func TestTimingShape(t *testing.T)          { checkShape(t, "timing") }
func TestCutPreservationShape(t *testing.T) { checkShape(t, "cuts") }
func TestAblationEOShape(t *testing.T)      { checkShape(t, "abl-eo") }
func TestAblationSpannerShape(t *testing.T) { checkShape(t, "abl-spanner") }
func TestAblationUpsilonShape(t *testing.T) { checkShape(t, "abl-upsilon") }

func TestFigure6Tables(t *testing.T) {
	checkShape(t, "fig6a")
	checkShape(t, "fig6b")
}

func TestFigure8Shape(t *testing.T) {
	checkShape(t, "fig8")
	// The figure's ranks are workers: decisions keyed by global edge ID make
	// the sampled graph the same on 4, 8 or 16 of them.
	ng := fig8Graphs(smoke)[2]
	outputOn := func(ranks int) Row {
		ng.Workers = ranks
		r, err := evaluate(smoke, ng, Spec{Spec: "uniform:p=0.6"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := outputOn(4)
	for _, ranks := range []int{8, 16} {
		if got := outputOn(ranks); !got.Output().Equal(want.Output()) {
			t.Fatalf("%s: output on %d ranks differs from 4 ranks", ng.Key, ranks)
		}
	}
}

// TestEveryArtifactHasShape keeps the list and the predicates in step: a new
// artifact that measures rows states its claim.
func TestEveryArtifactHasShape(t *testing.T) {
	keys := map[string]bool{"frontier": true}
	for _, a := range Artifacts {
		if keys[a.Key] {
			t.Errorf("artifact key %q listed twice", a.Key)
		}
		keys[a.Key] = true
		if _, ok := shapes[a.Key]; !ok && a.Static == nil {
			t.Errorf("artifact %q has no predicate in shapes", a.Key)
		}
	}
	for key := range shapes {
		if !keys[key] {
			t.Errorf("shapes[%q] names no artifact", key)
		}
	}
}

func TestLowRankShape(t *testing.T) {
	graphs, runs := lowRankRuns(smoke)
	if len(runs) != 6 {
		t.Fatalf("%d runs", len(runs))
	}
	for i, res := range runs {
		if res.ErrorRate() < 0.2 {
			t.Fatalf("%s rank %d: low-rank error rate %v suspiciously low", graphs[i], res.Rank, res.ErrorRate())
		}
	}
}

func TestAblationEORedirectMatchesFig6Claim(t *testing.T) {
	// On triangle-rich graphs, redirect-EO removes at least as many edges
	// as basic TR — the Fig. 6 shape the default semantics trades away.
	ng := table6Graphs(smoke)[3] // densest planted-communities analog
	cfg := Config{Seed: 1, Workers: 2}
	basic, err := evaluate(cfg, ng, Spec{Spec: "tr:p=0.5"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	redir, err := evaluate(cfg, ng, Spec{Spec: "tr-eo-redirect:p=0.5"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if redir.Reduction() < 0.9*basic.Reduction() {
		t.Fatalf("redirect reduction %v far below basic %v", redir.Reduction(), basic.Reduction())
	}
}

func TestAblationEOProtectiveKeepsComponents(t *testing.T) {
	r, err := evaluate(Config{Seed: 2, Workers: 1}, table6Graphs(smoke)[3], Spec{Spec: "tr-eo:p=0.9"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Quality.CompressedComponents != r.Quality.Components {
		t.Fatal("protective EO changed component count")
	}
}

// TestEvaluateFillsQualityOnlyOnSharedVertexSet pins the -compare rule: a
// scheme that renumbers vertices (or changes n) gets sizes, time, bits/edge
// and the power-law fit, but neither Quality nor the quadratic-form error.
func TestEvaluateFillsQualityOnlyOnSharedVertexSet(t *testing.T) {
	ng := fig5Graphs(smoke)[1]
	for spec, shared := range map[string]bool{"": true, "uniform:p=0.5": true, "summarize": true,
		"tr-collapse:p=0.5": false, "relabel:order=bfs": false, "uniform:p=0.5|relabel": false} {
		r, err := evaluate(smoke, ng, Spec{Spec: spec}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (r.Quality != nil) != shared || (r.QuadFormError != nil) != shared {
			t.Errorf("%q: Quality %v, QuadFormError %v, want set = %v", spec, r.Quality, r.QuadFormError, shared)
		}
		if r.BitsPerEdge <= 0 || r.CM != r.Output().M() || (r.StorageEdges != nil) != (spec == "summarize") {
			t.Errorf("%q: bits/edge %v, m' %d, StorageEdges %v", spec, r.BitsPerEdge, r.CM, r.StorageEdges)
		}
		if spec == "" && (r.Ratio != 1 || *r.QuadFormError != 0 || r.Quality.KLPageRank != 0) {
			t.Errorf("the uncompressed graph differs from itself: %+v", r)
		}
	}
	if _, err := evaluate(smoke, ng, Spec{Spec: "nonsense:p=1"}, nil); err == nil {
		t.Error("an unknown scheme evaluated")
	}
}

func TestTablePrinting(t *testing.T) {
	// Columns align by rune count, not byte length: a row mixing ASCII and
	// non-ASCII cells keeps every later cell in column.
	tab := &Table{ID: "T", Title: "t", Header: []string{"scheme", "ΔCC(x)", "m"}}
	tab.AddRow("eps-summary", "m ± 2εm", "1")
	tab.AddRow("Υ", "+0", "22")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")[1:]
	for _, line := range lines {
		if got, want := len([]rune(line)), len([]rune(lines[0])); got != want {
			t.Fatalf("line %q is %d runes wide, header %d:\n%s", line, got, want, buf.String())
		}
	}
	if at := strings.Index(lines[2], "1"); []rune(lines[3])[len([]rune(lines[2][:at]))] != '2' {
		t.Fatalf("last column out of line:\n%s", buf.String())
	}
}

func TestAllRunsAndPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	var buf bytes.Buffer
	for _, a := range Artifacts {
		tab, err := a.Table(smoke)
		if err != nil {
			t.Fatal(err)
		}
		tab.Fprint(&buf)
	}
	if buf.Len() < 1000 || !strings.Contains(buf.String(), "§7.5") {
		t.Fatalf("suspiciously short output: %d bytes", buf.Len())
	}
}

// TestSweepRule pins the one rule the frontier derives its points by.
func TestSweepRule(t *testing.T) {
	for name, want := range map[string][]string{
		"lowdeg": {"lowdeg"},
		// A closed range: nine interior points.
		"uniform": {"uniform", "uniform:p=0.1", "uniform:p=0.2", "uniform:p=0.3", "uniform:p=0.4", "uniform:p=0.5",
			"uniform:p=0.6", "uniform:p=0.7", "uniform:p=0.8", "uniform:p=0.9"},
		// Open ranges: the default times 2^-3..2^3, ints rounded; Enums in full.
		"spanner": {"spanner", "spanner:k=1", "spanner:k=2", "spanner:k=4", "spanner:k=8", "spanner:k=16",
			"spanner:k=32", "spanner:k=64", "spanner:mode=pervertex", "spanner:mode=perpair"},
		// An auto default anchors at 1.
		"cut": {"cut", "cut:rho=0.125", "cut:rho=0.25", "cut:rho=0.5", "cut:rho=1", "cut:rho=2", "cut:rho=4", "cut:rho=8"},
	} {
		reg, _ := schemes.Lookup(name)
		if got := Sweep(reg); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("Sweep(%s) = %v, want %v", name, got, want)
		}
	}
	// tr's x is an Int in [1, 2], its variant is sugar for other names.
	reg, _ := schemes.Lookup("tr")
	if got := strings.Join(Sweep(reg), " "); !strings.Contains(got, "tr:x=2") || strings.Contains(got, "variant") {
		t.Errorf("Sweep(tr) = %v", got)
	}
}

func TestParetoSet(t *testing.T) {
	row := func(spec string, bits, loss float64) Row {
		return Row{Spec: spec, BitsPerEdge: bits, Quality: &metrics.Quality{KLPageRank: loss}}
	}
	rows := []Row{row("a", 4, 0.5), row("b", 2, 0.9), row("dominated", 5, 0.6), row("c", 8, 0.1),
		row("tie-bits-worse", 4, 0.7), {Spec: "renumbered", BitsPerEdge: 1}}
	var got []string
	for _, p := range paretoSet(rows, losses[0].Of) {
		got = append(got, p.Spec)
	}
	if strings.Join(got, " ") != "b a c" {
		t.Fatalf("Pareto set %v, want [b a c]", got)
	}
}

// TestFrontier is what CI's `slimbench -scale 0 -frontier` step checks, plus
// the spectral-vs-uniform claim: every registered scheme on both toy graphs,
// JSON that round-trips, at least one Pareto point per (graph, metric).
func TestFrontier(t *testing.T) {
	f, err := MeasureFrontier(smoke)
	if err != nil {
		t.Fatal(err)
	}
	if err := shapes["frontier"](f.Rows); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for _, r := range f.Rows {
		name, _, _ := strings.Cut(r.Spec, ":")
		covered[r.Graph+" "+name] = true
		if r.Elapsed <= 0 || r.BitsPerEdge < 0 || math.IsNaN(r.Slope) {
			t.Fatalf("%s on %s: elapsed %v, bits/edge %v, slope %v", r.Spec, r.Graph, r.Elapsed, r.BitsPerEdge, r.Slope)
		}
	}
	for _, g := range []string{"rmat10", "grid32"} {
		for _, name := range schemes.Names() {
			if !covered[g+" "+name] {
				t.Errorf("no row for %s on %s", name, g)
			}
		}
	}
	if len(f.Pareto) != 2*len(losses) {
		t.Fatalf("%d Pareto sets, want %d", len(f.Pareto), 2*len(losses))
	}
	for _, p := range f.Pareto {
		if len(p.Points) == 0 {
			t.Errorf("%s/%s: empty Pareto set", p.Graph, p.Metric)
		}
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back Frontier
	if err := json.Unmarshal(raw, &back); err != nil || len(back.Rows) != len(f.Rows) {
		t.Fatalf("JSON round trip: %v (%d rows of %d)", err, len(back.Rows), len(f.Rows))
	}
}
