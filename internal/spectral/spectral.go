// Package spectral provides Laplacian operators, eigenvalue estimation, and
// the clustered low-rank (SVD) approximation baseline.
//
// Spectral sparsification (§4.2.1) promises to preserve the graph spectrum
// — the eigenvalues of the Laplacian L = D - A. This package supplies the
// measurement side: power iteration for extreme eigenvalues and a
// quadratic-form comparison that bounds how far a sparsifier's Laplacian is
// from the original on random test vectors. It also implements the
// clustered low-rank approximation of §4.6/§7.4, the baseline the paper
// shows to have prohibitive storage and very high error rates.
package spectral

import (
	"math"

	"slimgraph/internal/graph"
	"slimgraph/internal/parallel"
	"slimgraph/internal/rng"
)

// LaplacianMatVec computes y = L x = (D - A) x for the weighted Laplacian.
func LaplacianMatVec(g *graph.Graph, x, y []float64, workers int) {
	n := g.N()
	parallel.For(n, workers, func(v int) {
		nbrs, eids := g.NeighborEdges(graph.NodeID(v))
		sum := 0.0
		deg := 0.0
		for i, w := range nbrs {
			wt := g.EdgeWeight(eids[i])
			deg += wt
			sum += wt * x[w]
		}
		y[v] = deg*x[v] - sum
	})
}

// QuadraticForm returns x^T L x = sum over edges w_uv (x_u - x_v)^2,
// computed edge-wise (numerically stable and cheap).
func QuadraticForm(g *graph.Graph, x []float64) float64 {
	s := 0.0
	for e := 0; e < g.M(); e++ {
		u, v := g.EdgeEndpoints(graph.EdgeID(e))
		d := x[u] - x[v]
		s += g.EdgeWeight(graph.EdgeID(e)) * d * d
	}
	return s
}

// MaxEigenvalue estimates the largest Laplacian eigenvalue by power
// iteration with the given iteration count (64 is plenty for benchmark
// precision).
func MaxEigenvalue(g *graph.Graph, iters int, seed uint64, workers int) float64 {
	n := g.N()
	if n == 0 {
		return 0
	}
	if iters <= 0 {
		iters = 64
	}
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.Float64() - 0.5
	}
	y := make([]float64, n)
	lambda := 0.0
	for it := 0; it < iters; it++ {
		LaplacianMatVec(g, x, y, workers)
		norm := 0.0
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		for i := range x {
			x[i] = y[i] / norm
		}
		lambda = norm
	}
	return lambda
}

// QuadFormError measures sparsifier quality: the maximum relative error
// |x^T L_H x - x^T L_G x| / x^T L_G x over the given number of random test
// vectors (centered to be orthogonal to the all-ones nullspace). A
// (1±eps) spectral sparsifier keeps this below eps for all x; sampling
// random vectors gives the empirical counterpart used in the evaluation.
func QuadFormError(orig, compressed *graph.Graph, trials int, seed uint64) float64 {
	if orig.N() != compressed.N() {
		panic("spectral: graphs must share a vertex set")
	}
	n := orig.N()
	r := rng.New(seed)
	worst := 0.0
	x := make([]float64, n)
	for t := 0; t < trials; t++ {
		mean := 0.0
		for i := range x {
			x[i] = r.Float64() - 0.5
			mean += x[i]
		}
		mean /= float64(n)
		for i := range x {
			x[i] -= mean
		}
		qg := QuadraticForm(orig, x)
		if qg <= 1e-12 {
			continue
		}
		qh := QuadraticForm(compressed, x)
		if err := math.Abs(qh-qg) / qg; err > worst {
			worst = err
		}
	}
	return worst
}

// EffectiveResistanceProxy returns 1/min(du, dv) per edge — the degree-based
// upper bound on effective resistance that the paper's practical spectral
// sparsifier samples with (§4.2.1: p_uv = min(1, Upsilon/min(du, dv))).
func EffectiveResistanceProxy(g *graph.Graph, e graph.EdgeID) float64 {
	u, v := g.EdgeEndpoints(e)
	du, dv := g.Degree(u), g.Degree(v)
	min := du
	if dv < min {
		min = dv
	}
	if min == 0 {
		return 1
	}
	return 1 / float64(min)
}
