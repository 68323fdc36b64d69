package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

var smoke = Config{Scale: 0, Seed: 99, Workers: 2}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d, %d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func num(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d, %d) = %q not numeric", tab.ID, row, col, s)
	}
	return v
}

func TestTablePrinting(t *testing.T) {
	tab := Guidelines()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "§7.5") || !strings.Contains(out, "spanner") {
		t.Fatalf("unexpected rendering:\n%s", out)
	}
}

func TestTable2RowsComplete(t *testing.T) {
	tab := Table2(smoke)
	if len(tab.Rows) != 5 {
		t.Fatalf("Table2 has %d rows, want 5 schemes", len(tab.Rows))
	}
	// Uniform formula vs measured must be close (within 10%).
	formula := num(t, tab, 0, 2)
	measured := num(t, tab, 0, 3)
	if formula <= 0 || measured <= 0 {
		t.Fatal("degenerate uniform row")
	}
	diff := (formula - measured) / formula
	if diff < -0.1 || diff > 0.1 {
		t.Fatalf("uniform formula %v vs measured %v", formula, measured)
	}
	// Spectral expectation vs measurement within 10%.
	sf, sm := num(t, tab, 1, 2), num(t, tab, 1, 3)
	diff = (sf - sm) / sf
	if diff < -0.1 || diff > 0.1 {
		t.Fatalf("spectral formula %v vs measured %v", sf, sm)
	}
}

func TestTable3ShapeClaims(t *testing.T) {
	tab := Table3(smoke)
	if len(tab.Rows) != 7 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Column indices: 0 scheme, 1 n, 2 m, ..., 9 CC.
	const colM, colT, colCC = 2, 8, 9
	find := func(name string) int {
		for i, r := range tab.Rows {
			if r[0] == name {
				return i
			}
		}
		t.Fatalf("row %q missing", name)
		return -1
	}
	orig := find("original")
	// Every non-summary scheme is a subgraph: m never increases.
	for _, name := range []string{"uniform(p=0.5)", "spectral(logn)", "spanner(k=8)",
		"EO-0.5-1-TR", "remove-deg<=1"} {
		if num(t, tab, find(name), colM) > num(t, tab, orig, colM) {
			t.Fatalf("%s increased m", name)
		}
	}
	// EO-TR and spanner preserve #CC.
	for _, name := range []string{"EO-0.5-1-TR", "spanner(k=8)"} {
		if num(t, tab, find(name), colCC) != num(t, tab, orig, colCC) {
			t.Fatalf("%s changed #CC: %v vs %v", name,
				num(t, tab, find(name), colCC), num(t, tab, orig, colCC))
		}
	}
	// Degree<=1 removal preserves the triangle count exactly.
	if num(t, tab, find("remove-deg<=1"), colT) != num(t, tab, orig, colT) {
		t.Fatal("deg-1 removal changed T")
	}
	// Uniform removal of half the edges cuts triangles to ~(1/2)^3.
	ratio := num(t, tab, find("uniform(p=0.5)"), colT) / num(t, tab, orig, colT)
	if ratio < 0.05 || ratio > 0.25 {
		t.Fatalf("uniform triangle ratio %v, want ~0.125", ratio)
	}
}

func TestFigure5Shape(t *testing.T) {
	tab := Figure5(smoke)
	// 3 graphs x 13 parameter rows.
	if len(tab.Rows) != 39 {
		t.Fatalf("%d rows, want 39", len(tab.Rows))
	}
	// Compression ratio decreases with uniform removal p within each graph.
	for g := 0; g < 3; g++ {
		base := g * 13
		r01 := num(t, tab, base+0, 3)
		r09 := num(t, tab, base+2, 3)
		if r09 >= r01 {
			t.Fatalf("graph %d: uniform ratio did not fall with p (%v -> %v)", g, r01, r09)
		}
		// Spanner k=128 compresses harder than k=2.
		k2 := num(t, tab, base+9, 3)
		k128 := num(t, tab, base+12, 3)
		if k128 > k2 {
			t.Fatalf("graph %d: spanner k=128 ratio %v > k=2 %v", g, k128, k2)
		}
	}
}

func TestFigure6Tables(t *testing.T) {
	left := Figure6Spectral(smoke)
	if len(left.Rows) != 9 {
		t.Fatalf("left rows %d", len(left.Rows))
	}
	for i := range left.Rows {
		a, l := num(t, left, i, 4), num(t, left, i, 5)
		if a < 0 || a > 1 || l < 0 || l > 1 {
			t.Fatalf("row %d: reductions out of range (%v, %v)", i, a, l)
		}
	}
	right := Figure6TR(smoke)
	if len(right.Rows) != 5 {
		t.Fatalf("right rows %d", len(right.Rows))
	}
	for i := range right.Rows {
		basic := num(t, right, i, 3)
		eo := num(t, right, i, 5)
		if eo > basic+1e-9 {
			t.Fatalf("row %d: EO reduction %v exceeds basic %v (protective semantics)",
				i, eo, basic)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	tab := Table5(smoke)
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		// KL values are finite and non-negative.
		for c := 1; c < len(row); c++ {
			v := num(t, tab, i, c)
			if v < 0 {
				t.Fatalf("row %d col %d: negative KL %v", i, c, v)
			}
		}
		// Uniform removing half distorts at least as much as removing 20%.
		if num(t, tab, i, 4) < num(t, tab, i, 3)-0.02 {
			t.Fatalf("row %d: uniform p=0.5 KL below p=0.2", i)
		}
	}
	// Road network (last row) under spanners stays near zero (paper: 0.0000
	// at k=2).
	if v := num(t, tab, 4, 5); v > 0.05 {
		t.Fatalf("v-usa spanner k=2 KL %v, want ~0", v)
	}
}

func TestTable6Shape(t *testing.T) {
	tab := Table6(smoke)
	if len(tab.Rows) != 12 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		orig := num(t, tab, i, 1)
		if orig <= 0 {
			continue // triangle-free analog; nothing to check
		}
		// 0.9-1-TR kills more triangles than 0.2-1-TR.
		if num(t, tab, i, 3) > num(t, tab, i, 2)+1e-9 {
			t.Fatalf("row %d: TR p=0.9 left more triangles than p=0.2", i)
		}
		// Uniform: heavier removal, fewer triangles.
		u8, u5, u2 := num(t, tab, i, 4), num(t, tab, i, 5), num(t, tab, i, 6)
		if u8 > u5+1e-9 || u5 > u2+1e-9 {
			t.Fatalf("row %d: uniform triangle ordering broken (%v, %v, %v)", i, u8, u5, u2)
		}
		// Spanner k=128 leaves almost nothing.
		if num(t, tab, i, 9) > 0.1*orig {
			t.Fatalf("row %d: spanner k=128 left %v of %v", i, num(t, tab, i, 9), orig)
		}
	}
}

func TestBFSCriticalShape(t *testing.T) {
	tab := BFSCritical(smoke)
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Retention decreases with k but stays above the removal complement.
	prev := 101.0
	for i := range tab.Rows {
		removed := num(t, tab, i, 2)
		retained := num(t, tab, i, 3)
		if retained > prev+5 {
			t.Fatalf("row %d: retention grew with k", i)
		}
		prev = retained
		if removed > 20 && retained < 5 {
			t.Fatalf("row %d: retention collapsed (%v%% removed, %v%% retained)",
				i, removed, retained)
		}
	}
	// The headline: retention beats naive expectation (100 - removed%).
	first := num(t, tab, 0, 3) + num(t, tab, 0, 2)
	if first < 90 {
		t.Fatalf("k=2: removed+retained = %v, expected high retention", first)
	}
}

func TestReorderedPairsShape(t *testing.T) {
	tab := ReorderedPairs(smoke)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		for _, c := range []int{3, 4} {
			v := num(t, tab, i, c)
			if v < 0 || v > 1 {
				t.Fatalf("row %d col %d: fraction %v", i, c, v)
			}
		}
	}
}

func TestFigure7Shape(t *testing.T) {
	tab := Figure7(smoke)
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Spanners only remove edges; fits stay defined.
	for g := 0; g < 3; g++ {
		base := 3 * g
		mOrig := num(t, tab, base, 2)
		m2 := num(t, tab, base+1, 2)
		m32 := num(t, tab, base+2, 2)
		if m2 > mOrig || m32 > m2 {
			t.Fatalf("graph %d: spanner m not decreasing (%v, %v, %v)", g, mOrig, m2, m32)
		}
	}
}

func TestFigure8Shape(t *testing.T) {
	tab := Figure8(smoke)
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for g := 0; g < 3; g++ {
		base := 3 * g
		mOrig := num(t, tab, base, 3)
		m4 := num(t, tab, base+1, 3)
		m7 := num(t, tab, base+2, 3)
		if !(m7 < m4 && m4 < mOrig) {
			t.Fatalf("graph %d: sampling m not decreasing (%v, %v, %v)", g, mOrig, m4, m7)
		}
		// Power-law slope stays negative (heavy-tail shape survives).
		s0 := num(t, tab, base, 4)
		s7 := num(t, tab, base+2, 4)
		if s0 >= 0 || s7 >= 0 {
			t.Fatalf("graph %d: degree-distribution slopes not negative (%v, %v)", g, s0, s7)
		}
	}
	// The figure's ranks are workers: decisions keyed by global edge ID make
	// the sampled graph the same on 4, 8 or 16 of them.
	ng := fig8Graphs(smoke)[2]
	cfg := smoke
	cfg.Workers = 4
	want := compress(cfg, ng.G, "uniform:p=0.6").Output
	for _, ranks := range []int{8, 16} {
		cfg.Workers = ranks
		if got := compress(cfg, ng.G, "uniform:p=0.6").Output; !got.Equal(want) {
			t.Fatalf("%s: output on %d ranks differs from 4 ranks", ng.Key, ranks)
		}
	}
}

func TestWeightedTRShape(t *testing.T) {
	tab := WeightedTR(smoke)
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// MST weight preserved exactly for all graphs.
	for i := range tab.Rows {
		if cell(t, tab, i, 4) != cell(t, tab, i, 5) {
			t.Fatalf("row %d: MST weight changed: %s -> %s",
				i, cell(t, tab, i, 4), cell(t, tab, i, 5))
		}
	}
	// Road network compresses least.
	road := num(t, tab, 0, 3)
	dense := num(t, tab, 2, 3)
	if road >= dense {
		t.Fatalf("road reduction %v >= community reduction %v", road, dense)
	}
}

func TestTimingShape(t *testing.T) {
	tab := Timing(smoke)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Summarization is the slowest of all schemes (paper: >200% over TR).
	last := num(t, tab, 5, 3)
	tr := num(t, tab, 3, 3)
	if last < tr {
		t.Fatalf("summarization (%vx) not slower than TR (%vx)", last, tr)
	}
}

func TestLowRankShape(t *testing.T) {
	tab := LowRank(smoke)
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := range tab.Rows {
		if num(t, tab, i, 3) < 0.2 {
			t.Fatalf("row %d: low-rank error rate %v suspiciously low", i, num(t, tab, i, 3))
		}
	}
}

func TestAllRunsAndPrints(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	var buf bytes.Buffer
	for _, tab := range All(smoke) {
		tab.Fprint(&buf)
	}
	if buf.Len() < 1000 {
		t.Fatalf("suspiciously short output: %d bytes", buf.Len())
	}
}
