package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0..1) of sorted by linear interpolation
// between closest ranks, so the median of an even count is the mean of the
// two middle samples. An empty slice yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// supports reports whether n samples support reporting percentile p: a tail
// is reported only with at least ten samples beyond it. The tolerance
// absorbs 1-p not being exact in binary (100 samples do support p90).
func supports(n int, p float64) bool { return float64(n)*(1-p) >= 10-1e-9 }

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), which is
// what the PR driver uses for its spread check. Fewer than two values yield
// the single value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure bounds are judged against. A zero median yields 0
// when all values are equal and +Inf otherwise.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / q2)
}
