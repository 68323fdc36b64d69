package schemes

import (
	"math"

	"slimgraph/internal/core"
	"slimgraph/internal/graph"
	"slimgraph/internal/rng"
)

// uniform implements random uniform sampling (§4.2.2, Listing 1 lines
// 8-10): every edge independently remains with probability p. The fastest
// scheme; preserves the triangle count in expectation ((1-q)^3 T for
// removal probability q). Like spectral, it reads a packed or mapped g in
// place (core.SG.RunEdgeKernel).
func uniform(g graph.AdjacencyEdges, a Args) (*Result, error) {
	p := a.Float("p")
	sg := core.New(g, a.Seed, a.Workers)
	sg.RunEdgeKernel(func(sg *core.SG, r *rng.Rand, e core.EdgeView) {
		if p < r.Float64() { // p is the probability the edge stays
			sg.Del(e.ID)
		}
	})
	return &Result{Output: sg.Materialize()}, nil
}

// spectral implements spectral sparsification (§4.2.1, Listing 1 lines
// 2-6): edge e = (u, v) stays with probability min(1, Υ/min(du, dv)), so
// every vertex keeps edges attached w.h.p.; kept edges are reweighted by
// 1/p_e when reweight is set, which keeps the Laplacian unbiased.
//
// variant selects how Υ scales with the user parameter p: "logn" sets
// Υ = p·ln n (Spielman–Teng style), "avgdeg" sets Υ = p·m/n
// (BridgingTheGAP style). Figure 6 (left) compares the two.
func spectral(g graph.AdjacencyEdges, a Args) (*Result, error) {
	var upsilon float64
	switch p := a.Float("p"); a.Enum("variant") {
	case "avgdeg":
		if g.N() > 0 {
			upsilon = p * float64(g.M()) / float64(g.N())
		}
	default:
		upsilon = p * math.Log(float64(max(g.N(), 2)))
	}
	sg := core.New(g, a.Seed, a.Workers)
	reweight := a.Bool("reweight")
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
	return &Result{Output: sg.Materialize()}, nil
}
