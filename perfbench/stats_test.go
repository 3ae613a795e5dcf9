package main

import (
	"math"
	"testing"
)

// descending returns n samples n, n-1, ..., 1, so the helpers must sort.
func descending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

// TestTailPercentileRule: the reported percentile is the highest one with
// at least ten samples beyond it, falling back to the median.
func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{
		{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {5, 50}, {1, 50},
	} {
		if _, pct := tailPercentile(descending(tc.n)); pct != tc.pct {
			t.Errorf("%d samples: reported p%d, want p%d", tc.n, pct, tc.pct)
		}
	}
	// 1..1000: p99 sits 1% of the way from the 990th to the 991st value.
	if v, _ := tailPercentile(descending(1000)); math.Abs(v-990.01) > 1e-6 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", v)
	}
}

// TestQuartileSpreadMatchesPython: statistics.quantiles(range(1, 11), n=4)
// is [2.75, 5.5, 8.25], so the spread over the median 5.5 is exactly 1.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	if got := quartileSpread(descending(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want 1", got)
	}
}
