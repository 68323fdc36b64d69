package experiments

import (
	"testing"

	"slimgraph/internal/components"
)

func TestAblationEOShape(t *testing.T) {
	tab := AblationEO(smoke)
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		basic := num(t, tab, i, 1)
		prot := num(t, tab, i, 2)
		redir := num(t, tab, i, 3)
		// Protective EO never removes more than basic; redirect never less.
		if prot > basic+1e-9 {
			t.Fatalf("row %d: protective EO reduction %v > basic %v", i, prot, basic)
		}
		if redir < prot-1e-9 {
			t.Fatalf("row %d: redirect EO reduction %v < protective %v", i, redir, prot)
		}
	}
}

func TestAblationEORedirectMatchesFig6Claim(t *testing.T) {
	// On triangle-rich graphs, redirect-EO removes at least as many edges
	// as basic TR — the Fig. 6 shape the default semantics trades away.
	g := table6Graphs(smoke)[3].G // densest planted-communities analog
	basic := compress(Config{Seed: 1, Workers: 2}, g, "tr:p=0.5")
	redir := compress(Config{Seed: 1, Workers: 2}, g, "tr-eo-redirect:p=0.5")
	if redir.EdgeReduction() < 0.9*basic.EdgeReduction() {
		t.Fatalf("redirect reduction %v far below basic %v",
			redir.EdgeReduction(), basic.EdgeReduction())
	}
	// And it still deletes at most one edge per triangle by construction:
	// the deleted count never exceeds the sampled triangle count bound m.
	if redir.Output.M() < 0 {
		t.Fatal("impossible")
	}
}

func TestAblationEOProtectiveKeepsComponents(t *testing.T) {
	g := table6Graphs(smoke)[3].G
	before := components.Count(g)
	prot := compress(Config{Seed: 2, Workers: 1}, g, "tr-eo:p=0.9")
	if components.Count(prot.Output) != before {
		t.Fatal("protective EO changed component count")
	}
}

func TestAblationSpannerShape(t *testing.T) {
	tab := AblationSpanner(smoke)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Per-pair rows (odd indices) keep at most as many edges as per-vertex.
	for i := 0; i < 6; i += 2 {
		pv := num(t, tab, i, 3)
		pp := num(t, tab, i+1, 3)
		if pp > pv+1e-9 {
			t.Fatalf("k row %d: per-pair ratio %v > per-vertex %v", i, pp, pv)
		}
	}
}

func TestAblationUpsilonShape(t *testing.T) {
	tab := AblationUpsilon(smoke)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Ratio grows monotonically with P.
	prev := -1.0
	for i := range tab.Rows {
		r := num(t, tab, i, 1)
		if r < prev-1e-9 {
			t.Fatalf("row %d: ratio %v fell below %v", i, r, prev)
		}
		prev = r
	}
	// The §4.2.1 coverage promise is probabilistic: isolation shrinks as Υ
	// grows and is gone once Υ comfortably exceeds 1 (P >= 1 here).
	first := num(t, tab, 0, 2)
	last := num(t, tab, len(tab.Rows)-1, 2)
	if last > first {
		t.Fatalf("isolation grew with Υ: %v -> %v", first, last)
	}
	for i := 3; i < len(tab.Rows); i++ { // P in {1, 2, 4}
		if num(t, tab, i, 2) > 0 {
			t.Fatalf("row %d (P >= 1) isolated %v vertices", i, num(t, tab, i, 2))
		}
	}
}
