package experiments

import (
	"fmt"
	"math"
	"time"

	"slimgraph/internal/centrality"
	"slimgraph/internal/graph"
	"slimgraph/internal/metrics"
	"slimgraph/internal/props"
	"slimgraph/internal/triangles"
)

func col(head string, cell func(Row) string) Column { return Column{Head: head, Cell: cell} }

// num formats one measurement of the row.
func num(head string, format func(float64) string, v func(Row) float64) Column {
	return col(head, func(r Row) string { return format(v(r)) })
}

// quality formats a field of the row's Quality, "-" where the vertex set is
// not shared and there is none.
func quality(head string, cell func(*metrics.Quality) string) Column {
	return col(head, func(r Row) string {
		if r.Quality == nil {
			return "-"
		}
		return cell(r.Quality)
	})
}

// The columns most artifacts share.
var (
	colGraph  = col("graph", func(r Row) string { return r.Graph })
	colAnalog = col("analog", func(r Row) string { return r.Analog })
	colN      = col("n", func(r Row) string { return d2(r.N) })
	colM      = col("m", func(r Row) string { return d2(r.M) })
	colRatio  = num("ratio", f3, func(r Row) float64 { return r.Ratio })
	colSlope  = num("slope", f3, func(r Row) float64 { return r.Slope })
	colR2     = num("R^2", f3, func(r Row) float64 { return r.R2 })
	colKL     = quality("KL(PR)", func(q *metrics.Quality) string { return f4(q.KLPageRank) })
)

func label(head string) Column { return col(head, func(r Row) string { return r.Label }) }
func param(head string) Column { return col(head, func(r Row) string { return r.Param }) }

func keptEdges(head string) Column { return col(head, func(r Row) string { return d2(r.CM) }) }

func reduction(head string) Column { return num(head, f3, Row.Reduction) }

func deltaCC(head string) Column {
	return quality(head, func(q *metrics.Quality) string {
		return fmt.Sprintf("%+d", q.CompressedComponents-q.Components)
	})
}

// elapsed prints the compress time; the uncompressed graph has none.
func elapsed(head string) Column {
	return Column{Head: head, Timing: true, Cell: func(r Row) string {
		if r.Spec == "" {
			return "-"
		}
		return r.Elapsed.String()
	}}
}

// relTime is a Figure 5 cell: the share of kernel's running time the
// compression saved, (t - t')/t, best of three runs on each side.
func relTime(head string, kernel func(g *graph.Graph, workers int)) Column {
	return Column{Head: head, Timing: true, Cell: func(r Row) string {
		orig := measure(func() { kernel(r.orig, r.workers) }).Seconds()
		comp := measure(func() { kernel(r.out, r.workers) }).Seconds()
		if orig == 0 {
			return f3(0)
		}
		return f3((orig - comp) / orig)
	}}
}

// measure returns the best-of-three wall time of f.
func measure(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// reorderedBC and reorderedTC are the §7.2 cells: the fraction of the
// original's neighbouring vertex pairs whose order by sampled betweenness,
// or by per-vertex triangle count, inverts on the output.
func reorderedBC(r Row) float64 {
	sources := sampleVertices(r.orig, 64)
	return metrics.ReorderedNeighborPairs(r.orig,
		centrality.BetweennessSampled(r.orig, sources, r.workers),
		centrality.BetweennessSampled(r.out, sources, r.workers))
}

func reorderedTC(r Row) float64 {
	return metrics.ReorderedNeighborPairs(r.orig,
		toFloat(triangles.PerVertex(r.orig, r.workers)), toFloat(triangles.PerVertex(r.out, r.workers)))
}

// cutError is the §6.3 cell: the relative change of the global min cut.
func cutError(r Row) float64 {
	before := props.StoerWagner(r.orig)
	if before <= 0 {
		return 0
	}
	return math.Abs(props.StoerWagner(r.out)-before) / before
}

// isolated counts the vertices the scheme left without any edge.
func isolated(r Row) int {
	count := 0
	for v := 0; v < r.out.N(); v++ {
		if r.out.Degree(graph.NodeID(v)) == 0 && r.orig.Degree(graph.NodeID(v)) > 0 {
			count++
		}
	}
	return count
}

func sampleVertices(g *graph.Graph, count int) []graph.NodeID {
	count = min(count, g.N())
	out := make([]graph.NodeID, count)
	stride := max(g.N()/max(count, 1), 1)
	for i := range out {
		out[i] = graph.NodeID(i * stride % g.N())
	}
	return out
}

func toFloat(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
