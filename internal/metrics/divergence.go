// Package metrics is Slim Graph's analytics subsystem (§3.3, §5): the
// accuracy metrics that quantify what lossy compression did to algorithm
// outcomes.
//
//   - Statistical divergences (Kullback–Leibler, and Jensen–Shannon /
//     total variation for comparison) for outputs that form probability
//     distributions, e.g. PageRank (Table 5).
//   - Reordered-pair counts for outputs that induce a vertex ordering,
//     e.g. betweenness centrality or per-vertex triangle counts (§7.2),
//     in both the exact O(n log n) form and the cheaper O(m)
//     neighboring-pairs form.
//   - BFS critical-edge retention for Graph500-style predecessor outputs
//     (Figure 4's edge taxonomy).
//   - Degree-distribution comparisons (Figures 7 and 8).
package metrics

import (
	"fmt"
	"math"
)

// KLDivergence returns D_KL(P || Q) = sum_i P(i) log2(P(i)/Q(i)), the
// paper's chosen divergence (§5): the only Bregman divergence that is also
// an f-divergence. Zero entries of P contribute nothing; a zero entry of Q
// where P is positive makes the divergence +Inf, as defined. Inputs must
// have the same length; they are normalized internally so callers can pass
// unnormalized score vectors.
func KLDivergence(p, q []float64) float64 {
	checkPair(p, q)
	sp, sq := sum(p), sum(q)
	if sp == 0 || sq == 0 {
		return 0
	}
	d := 0.0
	for i := range p {
		pi := p[i] / sp
		if pi == 0 {
			continue
		}
		qi := q[i] / sq
		if qi == 0 {
			return math.Inf(1)
		}
		d += pi * math.Log2(pi/qi)
	}
	if d < 0 && d > -1e-12 {
		d = 0 // floating-point wobble: KL is non-negative
	}
	return d
}

// JensenShannon returns the Jensen–Shannon divergence, the symmetrized and
// always-finite relative of KL — provided for the §5 divergence comparison.
func JensenShannon(p, q []float64) float64 {
	checkPair(p, q)
	sp, sq := sum(p), sum(q)
	if sp == 0 || sq == 0 {
		return 0
	}
	d := 0.0
	for i := range p {
		pi, qi := p[i]/sp, q[i]/sq
		m := (pi + qi) / 2
		if pi > 0 && m > 0 {
			d += 0.5 * pi * math.Log2(pi/m)
		}
		if qi > 0 && m > 0 {
			d += 0.5 * qi * math.Log2(qi/m)
		}
	}
	if d < 0 {
		d = 0
	}
	return d
}

// TotalVariation returns half the L1 distance between the normalized
// distributions.
func TotalVariation(p, q []float64) float64 {
	checkPair(p, q)
	sp, sq := sum(p), sum(q)
	if sp == 0 || sq == 0 {
		return 0
	}
	d := 0.0
	for i := range p {
		d += math.Abs(p[i]/sp - q[i]/sq)
	}
	return d / 2
}

// RelativeChange returns |after-before| / |before| (0 when both are zero) —
// the simple scalar metric for outputs like component counts.
func RelativeChange(before, after float64) float64 {
	if before == 0 {
		if after == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(after-before) / math.Abs(before)
}

func checkPair(p, q []float64) {
	if len(p) != len(q) {
		panic(fmt.Sprintf("metrics: length mismatch %d vs %d", len(p), len(q)))
	}
	for i := range p {
		if p[i] < 0 || q[i] < 0 {
			panic("metrics: negative probability mass")
		}
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
