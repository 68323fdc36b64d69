package schemes

import (
	"fmt"
	"math"
	"time"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// Uniform implements random uniform sampling (§4.2.2, Listing 1 lines
// 8-10): every edge independently remains with probability p. The fastest
// scheme; preserves the triangle count in expectation ((1-q)^3 T for
// removal probability q).
func Uniform(g *graph.Graph, p float64, seed uint64, workers int) *Result {
	if p < 0 || p > 1 {
		panic("schemes: Uniform probability must be in [0, 1]")
	}
	start := time.Now()
	sg := core.New(g, seed, workers)
	sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
		if p < r.Float64() { // p is the probability the edge stays
			sg.Del(e.ID)
		}
	})
	return finish("uniform", fmt.Sprintf("p=%g", p), g, sg.Materialize(), start)
}

// UpsilonVariant selects how the spectral sparsifier's Υ parameter scales
// (§4.2.1): proportional to log n (Spielman–Teng style) or to the average
// degree (BridgingTheGAP style). Figure 6 (left) compares the two.
type UpsilonVariant int

const (
	// UpsilonLogN sets Υ = p * ln n.
	UpsilonLogN UpsilonVariant = iota
	// UpsilonAvgDeg sets Υ = p * m / n.
	UpsilonAvgDeg
)

func (v UpsilonVariant) String() string {
	if v == UpsilonAvgDeg {
		return "avgdeg"
	}
	return "logn"
}

// SpectralOptions configures Spectral.
type SpectralOptions struct {
	P        float64        // scale factor on Υ (the paper's user parameter p)
	Variant  UpsilonVariant // how Υ scales
	Reweight bool           // keep the output spectrally unbiased: w(e) = 1/p_e
	Seed     uint64
	Workers  int
}

// Spectral implements spectral sparsification (§4.2.1, Listing 1 lines
// 2-6): edge e = (u, v) stays with probability min(1, Υ/min(du, dv)), so
// every vertex keeps edges attached w.h.p.; kept edges are reweighted by
// 1/p_e when Reweight is set, which keeps the Laplacian unbiased.
func Spectral(g *graph.Graph, opts SpectralOptions) *Result {
	if opts.P <= 0 {
		panic("schemes: Spectral requires P > 0")
	}
	start := time.Now()
	var upsilon float64
	switch opts.Variant {
	case UpsilonAvgDeg:
		if g.N() > 0 {
			upsilon = opts.P * float64(g.M()) / float64(g.N())
		}
	default:
		upsilon = opts.P * math.Log(float64(max(g.N(), 2)))
	}
	sg := core.New(g, opts.Seed, opts.Workers)
	reweight := opts.Reweight
	sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
		minDeg := e.DegU
		if e.DegV < minDeg {
			minDeg = e.DegV
		}
		if minDeg == 0 {
			return
		}
		edgeStays := math.Min(1, upsilon/float64(minDeg))
		if edgeStays < r.Float64() {
			sg.Del(e.ID)
		} else if reweight && edgeStays < 1 {
			sg.SetWeight(e.ID, e.Weight/edgeStays)
		}
	})
	params := fmt.Sprintf("p=%g,variant=%s", opts.P, opts.Variant)
	return finish("spectral", params, g, sg.Materialize(), start)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
