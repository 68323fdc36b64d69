package metrics

import (
	"math"

	"slimgraph/internal/graph"
)

// DegreeDistribution returns fraction[d] = share of vertices with
// (out-)degree d — the quantity plotted in Figures 7 and 8 — with max
// degree + 1 bins. There is always a degree-0 bin, so an empty graph reads
// as one zero. One pass counts, the bins growing as larger degrees appear
// (a packed graph pays one varint decode per vertex), and one divides.
func DegreeDistribution(a graph.Adjacency) []float64 {
	n := a.N()
	dist := []float64{0}
	for v := range graph.NodeID(n) {
		d := a.Degree(v)
		if d >= len(dist) {
			dist = append(dist, make([]float64, d+1-len(dist))...)
		}
		dist[d]++
	}
	if n > 0 {
		for d := range dist {
			dist[d] /= float64(n)
		}
	}
	return dist
}

// DegreeDistributionOn forwards to DegreeDistribution for benchmark/ (frozen); the next benchmark PR deletes it.
func DegreeDistributionOn(a graph.Adjacency) []float64 { return DegreeDistribution(a) }

// PowerLawSlope fits log(fraction) = a + slope*log(degree) by least squares
// over degrees >= 1 with nonzero mass, returning the slope and the fit's
// R^2. The paper's Fig. 7 observation — "spanners strengthen the power law"
// — appears as R^2 moving toward 1 and the slope steepening with k.
func PowerLawSlope(dist []float64) (slope, r2 float64) {
	var xs, ys []float64
	for d := 1; d < len(dist); d++ {
		if dist[d] > 0 {
			xs = append(xs, math.Log(float64(d)))
			ys = append(ys, math.Log(dist[d]))
		}
	}
	if len(xs) < 2 {
		return 0, 0
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / denom
	// R^2 via the correlation coefficient.
	varY := n*syy - sy*sy
	if varY == 0 {
		return slope, 1
	}
	r := (n*sxy - sx*sy) / math.Sqrt(denom*varY)
	return slope, r * r
}

// DistributionDistance returns the total-variation distance between two
// degree distributions, padding the shorter one with zeros. It compares
// graphs with different vertex counts, which the paper highlights as a
// strength of degree-distribution analysis.
func DistributionDistance(a, b []float64) float64 {
	if len(a) < len(b) {
		a, b = b, a
	}
	padded := make([]float64, len(a))
	copy(padded, b)
	return TotalVariation(a, padded)
}
