// Package spectral measures what spectral sparsification (§4.2.1) promises
// to preserve — the Laplacian L = D - A — by its quadratic form: QuadFormError
// bounds how far a sparsifier's x^T L x is from the original's on random test
// vectors, the §6.3 predicate every row of internal/experiments carries. It
// also implements the clustered low-rank approximation of §4.6/§7.4, the
// baseline the paper shows to have prohibitive storage and very high error
// rates.
package spectral

import (
	"math"

	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

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
