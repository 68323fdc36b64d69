package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
}

// A tail is reported only with ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{19, 0.5, false}, {20, 0.5, true}, {99, 0.9, false}, {100, 0.9, true}, {199, 0.95, false},
		{200, 0.95, true}, {999, 0.99, false}, {1000, 0.99, true}, {10000, 0.999, true}} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the PR driver uses for its spread check.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	for i, pair := range [][2]float64{{q1, 3.5}, {q2, 13.5}, {q3, 31}} {
		if math.Abs(pair[0]-pair[1]) > 1e-12 {
			t.Errorf("quartile %d = %g, want %g", i+1, pair[0], pair[1])
		}
	}
	// statistics.quantiles([10, 20], n=4) extrapolates: [7.5, 15.0, 22.5]
	q1, q2, q3 = quartiles([]float64{10, 20})
	if q1 != 7.5 || q2 != 15 || q3 != 22.5 {
		t.Errorf("two-point quartiles = %g %g %g, want 7.5 15 22.5", q1, q2, q3)
	}
	if got := spread([]float64{100, 100, 100}); got != 0 {
		t.Errorf("spread of equal values = %g", got)
	}
}
