package experiments

import (
	"fmt"
	"math"
	"strings"
)

// shapes states the paper's shape claims as predicates over an artifact's
// rows (graph-major, specs in the artifact's order), keyed by Artifact.Key;
// "frontier" takes MeasureFrontier's rows. Every predicate reads typed Row
// fields or re-runs a column's measurement on Row.Output — none parses a
// formatted cell. One file on purpose: the statistical tests of ROADMAP
// items 6 and 9(c) assert these same claims over seeds and can lift it whole.
var shapes = map[string]func(rows []Row) error{
	"table2": func(rows []Row) error {
		if len(rows) != 5 {
			return fmt.Errorf("%d rows, want 5 schemes", len(rows))
		}
		// The uniform and spectral formulas are expectations: within 10%.
		for _, r := range rows[:2] {
			formula, _ := table2Formula(r)
			if formula <= 0 || r.CM <= 0 {
				return fmt.Errorf("%s: degenerate row", r.Label)
			}
			if d := (formula - float64(r.CM)) / formula; math.Abs(d) > 0.1 {
				return fmt.Errorf("%s: formula %v vs measured %d", r.Label, formula, r.CM)
			}
		}
		if rows[4].StorageEdges == nil {
			return fmt.Errorf("summarize row carries no StorageEdges")
		}
		return nil
	},
	"table3": func(rows []Row) error {
		if len(rows) != 7 {
			return fmt.Errorf("%d rows", len(rows))
		}
		orig := find(rows, "original")
		// Every non-summary scheme is a subgraph: m never increases.
		for _, name := range []string{"uniform(p=0.5)", "spectral(logn)", "spanner(k=8)", "EO-0.5-1-TR", "remove-deg<=1"} {
			if find(rows, name).CM > orig.CM {
				return fmt.Errorf("%s increased m", name)
			}
		}
		// EO-TR and spanner preserve #CC.
		for _, name := range []string{"EO-0.5-1-TR", "spanner(k=8)"} {
			if q := find(rows, name).Quality; q.CompressedComponents != q.Components {
				return fmt.Errorf("%s changed #CC: %d vs %d", name, q.CompressedComponents, q.Components)
			}
		}
		// Degree<=1 removal preserves the triangle count exactly.
		if q := find(rows, "remove-deg<=1").Quality; q.CompressedTriangles != q.Triangles {
			return fmt.Errorf("deg-1 removal changed T")
		}
		// Uniform removal of half the edges cuts triangles to ~(1/2)^3.
		q := find(rows, "uniform(p=0.5)").Quality
		if ratio := float64(q.CompressedTriangles) / float64(q.Triangles); ratio < 0.05 || ratio > 0.25 {
			return fmt.Errorf("uniform triangle ratio %v, want ~0.125", ratio)
		}
		return nil
	},
	"fig5": func(rows []Row) error {
		return perGraph(rows, 3, 13, func(g []Row) error {
			// Compression ratio decreases with uniform removal p.
			if g[2].Ratio >= g[0].Ratio {
				return fmt.Errorf("uniform ratio did not fall with p (%v -> %v)", g[0].Ratio, g[2].Ratio)
			}
			return spannerMonotone(g[9:13])
		})
	},
	"fig6a": func(rows []Row) error {
		return perGraph(rows, 9, 2, func(g []Row) error {
			for _, r := range g {
				if red := r.Reduction(); red < 0 || red > 1 {
					return fmt.Errorf("%s reduction out of range: %v", r.Label, red)
				}
			}
			return nil
		})
	},
	"fig6b": func(rows []Row) error {
		return perGraph(rows, 5, 3, func(g []Row) error {
			if basic, eo := g[0].Reduction(), g[2].Reduction(); eo > basic+1e-9 {
				return fmt.Errorf("EO reduction %v exceeds basic %v (protective semantics)", eo, basic)
			}
			return nil
		})
	},
	"table5": func(rows []Row) error {
		err := perGraph(rows, 5, 7, func(g []Row) error {
			for _, r := range g {
				if kl := r.Quality.KLPageRank; kl < 0 || math.IsInf(kl, 0) || math.IsNaN(kl) {
					return fmt.Errorf("%s: KL %v", r.Label, kl)
				}
			}
			// Uniform removing half distorts at least as much as removing 20%.
			if g[3].Quality.KLPageRank < g[2].Quality.KLPageRank-0.02 {
				return fmt.Errorf("uniform p=0.5 KL below p=0.2")
			}
			return nil
		})
		// Road network (last graph) under spanner k=2 stays near zero (paper: 0.0000).
		if road := rows[4*7+4]; err == nil && road.Quality.KLPageRank > 0.05 {
			return fmt.Errorf("%s spanner k=2 KL %v, want ~0", road.Graph, road.Quality.KLPageRank)
		}
		return err
	},
	"table6": func(rows []Row) error {
		return perGraph(rows, 12, 12, func(g []Row) error {
			t := make([]float64, len(g))
			for i, r := range g {
				t[i] = trianglesPerVertex(r)
			}
			if t[0] <= 0 {
				return nil // triangle-free analog; nothing to check
			}
			// 0.9-1-TR kills more triangles than 0.2-1-TR.
			if t[2] > t[1]+1e-9 {
				return fmt.Errorf("TR p=0.9 left more triangles than p=0.2")
			}
			// Uniform: heavier removal, fewer triangles.
			if t[3] > t[4]+1e-9 || t[4] > t[5]+1e-9 {
				return fmt.Errorf("uniform triangle ordering broken (%v, %v, %v)", t[3], t[4], t[5])
			}
			// Spanner k=128 leaves almost nothing.
			if t[8] > 0.1*t[0] {
				return fmt.Errorf("spanner k=128 left %v of %v", t[8], t[0])
			}
			return nil
		})
	},
	"bfs": func(rows []Row) error {
		if len(rows) != 4 {
			return fmt.Errorf("%d rows", len(rows))
		}
		// Retention decreases with k but does not collapse with the edge count.
		prev := 1.01
		for _, r := range rows {
			removed, retained := r.Reduction(), r.Quality.BFSRetention
			if retained > prev+0.05 {
				return fmt.Errorf("k=%s: retention grew with k", r.Param)
			}
			prev = retained
			if removed > 0.2 && retained < 0.05 {
				return fmt.Errorf("k=%s: retention collapsed (%v removed, %v retained)", r.Param, removed, retained)
			}
		}
		// The headline: retention beats the naive expectation (1 - removed).
		if sum := rows[0].Quality.BFSRetention + rows[0].Reduction(); sum < 0.9 {
			return fmt.Errorf("k=2: removed+retained = %v, expected high retention", sum)
		}
		return spannerMonotone(rows)
	},
	"pairs": func(rows []Row) error {
		if len(rows) != 6 {
			return fmt.Errorf("%d rows", len(rows))
		}
		for _, r := range rows {
			for _, v := range []float64{reorderedBC(r), reorderedTC(r)} {
				if v < 0 || v > 1 {
					return fmt.Errorf("%s/%s: fraction %v", r.Graph, r.Label, v)
				}
			}
		}
		return nil
	},
	"fig7": func(rows []Row) error {
		// Spanners only remove edges.
		return perGraph(rows, 3, 3, func(g []Row) error {
			if g[1].CM > g[0].CM || g[2].CM > g[1].CM {
				return fmt.Errorf("spanner m not decreasing (%d, %d, %d)", g[0].CM, g[1].CM, g[2].CM)
			}
			return nil
		})
	},
	"fig8": func(rows []Row) error {
		return perGraph(rows, 3, 3, func(g []Row) error {
			if !(g[2].CM < g[1].CM && g[1].CM < g[0].CM) {
				return fmt.Errorf("sampling m not decreasing (%d, %d, %d)", g[0].CM, g[1].CM, g[2].CM)
			}
			// Power-law slope stays negative (heavy-tail shape survives).
			if g[0].Slope >= 0 || g[2].Slope >= 0 {
				return fmt.Errorf("degree-distribution slopes not negative (%v, %v)", g[0].Slope, g[2].Slope)
			}
			return nil
		})
	},
	"weighted": func(rows []Row) error {
		if len(rows) != 3 {
			return fmt.Errorf("%d rows", len(rows))
		}
		// MST weight preserved exactly for all graphs.
		for _, r := range rows {
			if before, after := *r.Quality.MSTWeight, *r.Quality.CompressedMSTWeight; math.Abs(before-after) > 1e-9*before {
				return fmt.Errorf("%s: MST weight changed: %v -> %v", r.Graph, before, after)
			}
		}
		// Road network compresses least.
		if road, dense := rows[0].Reduction(), rows[2].Reduction(); road >= dense {
			return fmt.Errorf("road reduction %v >= community reduction %v", road, dense)
		}
		return nil
	},
	"timing": func(rows []Row) error {
		if len(rows) != 6 {
			return fmt.Errorf("%d rows", len(rows))
		}
		// Summarization is the slowest of all schemes (paper: >200% over TR).
		if sum, tr := rows[5].Elapsed, rows[3].Elapsed; sum < tr {
			return fmt.Errorf("summarization (%v) not slower than TR (%v)", sum, tr)
		}
		return nil
	},
	"cuts": func(rows []Row) error {
		totalCut, totalUni := 0.0, 0.0
		err := perGraph(rows, 3, 3, func(g []Row) error {
			cut, uni := cutError(g[0]), cutError(g[2])
			// The sparsifier keeps the cut within 50% on every graph.
			if cut > 0.5 {
				return fmt.Errorf("cut sparsifier error %v", cut)
			}
			totalCut, totalUni = totalCut+cut, totalUni+uni
			return nil
		})
		// At the same edge budget, uniform sampling damages the planted cuts
		// at least as much as the sparsifier in aggregate (with a small
		// tolerance for reweighting wobble when budgets are near 1).
		if err == nil && totalUni+0.15 < totalCut {
			return fmt.Errorf("uniform total error %v far below sparsifier %v", totalUni, totalCut)
		}
		return err
	},
	"abl-eo": func(rows []Row) error {
		return perGraph(rows, 4, 3, func(g []Row) error {
			basic, prot, redir := g[0].Reduction(), g[1].Reduction(), g[2].Reduction()
			// Protective EO never removes more than basic; redirect never less.
			if prot > basic+1e-9 {
				return fmt.Errorf("protective EO reduction %v > basic %v", prot, basic)
			}
			if redir < prot-1e-9 {
				return fmt.Errorf("redirect EO reduction %v < protective %v", redir, prot)
			}
			if q := g[1].Quality; q.CompressedComponents != q.Components {
				return fmt.Errorf("protective EO changed #CC")
			}
			return nil
		})
	},
	"abl-spanner": func(rows []Row) error {
		if len(rows) != 6 {
			return fmt.Errorf("%d rows", len(rows))
		}
		// Per-pair rows (odd indices) keep at most as many edges as per-vertex.
		for i := 0; i < 6; i += 2 {
			if pv, pp := rows[i].Ratio, rows[i+1].Ratio; pp > pv+1e-9 {
				return fmt.Errorf("k=%s: per-pair ratio %v > per-vertex %v", rows[i].Param, pp, pv)
			}
		}
		return nil
	},
	"abl-upsilon": func(rows []Row) error {
		if len(rows) != 6 {
			return fmt.Errorf("%d rows", len(rows))
		}
		// Ratio grows monotonically with P.
		for i := 1; i < len(rows); i++ {
			if rows[i].Ratio < rows[i-1].Ratio-1e-9 {
				return fmt.Errorf("P=%s: ratio %v fell below %v", rows[i].Param, rows[i].Ratio, rows[i-1].Ratio)
			}
		}
		// The §4.2.1 coverage promise is probabilistic: isolation shrinks as Υ
		// grows and is gone once Υ comfortably exceeds 1 (P >= 1 here).
		if first, last := isolated(rows[0]), isolated(rows[5]); last > first {
			return fmt.Errorf("isolation grew with Υ: %v -> %v", first, last)
		}
		for _, r := range rows[3:] { // P in {1, 2, 4}
			if n := isolated(r); n > 0 {
				return fmt.Errorf("P=%s isolated %d vertices", r.Param, n)
			}
		}
		return nil
	},
	// ROADMAP item 5 guessed spectral would beat uniform on PageRank KL at
	// equal m. The rows say otherwise (see frontierNote), and support one
	// claim on both graphs: wherever a spectral row and its nearest uniform
	// row keep edge counts within 10% of each other, spectral adds no more
	// components than uniform does.
	"frontier": func(rows []Row) error {
		compared := 0
		for _, s := range rows {
			if !strings.HasPrefix(s.Spec, "spectral:") || !strings.Contains(s.Spec, "variant=logn,reweight=false") {
				continue
			}
			var u *Row
			for i, r := range rows {
				if r.Graph == s.Graph && strings.HasPrefix(r.Spec, "uniform:") &&
					(u == nil || abs(r.CM-s.CM) < abs(u.CM-s.CM)) {
					u = &rows[i]
				}
			}
			if u == nil || float64(abs(u.CM-s.CM)) > 0.1*float64(s.CM) {
				continue
			}
			compared++
			added := func(r Row) int { return r.Quality.CompressedComponents - r.Quality.Components }
			if added(s) > added(*u) {
				return fmt.Errorf("%s: %s adds %d components, %s at m=%d vs %d only %d",
					s.Graph, s.Spec, added(s), u.Spec, u.CM, s.CM, added(*u))
			}
		}
		if compared < 4 {
			return fmt.Errorf("only %d spectral/uniform pairs at equal m", compared)
		}
		return nil
	},
}

// spannerMonotone is the item-5 claim nothing asserted before: on rows of
// one graph with increasing k, a spanner's m' never grows and the components
// never change.
func spannerMonotone(rows []Row) error {
	for i, r := range rows {
		if i > 0 && r.CM > rows[i-1].CM {
			return fmt.Errorf("%s: m' grew with k (%d -> %d)", r.Spec, rows[i-1].CM, r.CM)
		}
		if q := r.Quality; q.CompressedComponents != q.Components {
			return fmt.Errorf("%s: components %d -> %d", r.Spec, q.Components, q.CompressedComponents)
		}
	}
	return nil
}

// perGraph checks the row count and runs check on each graph's group.
func perGraph(rows []Row, graphs, per int, check func(group []Row) error) error {
	if len(rows) != graphs*per {
		return fmt.Errorf("%d rows, want %d graphs x %d specs", len(rows), graphs, per)
	}
	for ; len(rows) > 0; rows = rows[per:] {
		if err := check(rows[:per]); err != nil {
			return fmt.Errorf("%s: %w", rows[0].Graph, err)
		}
	}
	return nil
}

func find(rows []Row, label string) Row {
	for _, r := range rows {
		if r.Label == label {
			return r
		}
	}
	panic("no row labelled " + label)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
