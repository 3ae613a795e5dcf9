package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile;
// with fewer, the percentile is one or two outliers, not a measurement.
const minTail = 10

// tailPercentiles are the percentiles tailPercentile may report, highest
// first.
var tailPercentiles = []int{99, 95, 90, 75, 50}

// sortedCopy returns xs sorted, leaving xs alone.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of the sorted slice s, interpolating linearly
// between closest ranks; NaN when s is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// median is the 0.5-quantile of xs, in any order.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailPercentile reports the highest percentile in tailPercentiles that has
// at least minTail samples beyond it, and which percentile that was. With
// too few samples for any of them it falls back to the median.
func tailPercentile(xs []float64) (value float64, pct int) {
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		if len(s)*(100-p) >= minTail*100 {
			return quantile(s, float64(p)/100), p
		}
	}
	return quantile(s, 0.5), 50
}

// quartileSpread is the distance between the first and third quartiles as
// a share of the median, with the quartiles placed the way Python's
// statistics.quantiles(xs, n=4) places them.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := max(j-1, 0), min(j, len(s)-1)
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (quartile(3) - quartile(1)) / med
}
