package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending sample
// by nearest rank, so the value is one that was measured. An empty
// sample gives 0.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// median of the values: the middle one, or the mean of the middle two.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sortedCopy returns the values in ascending order.
func sortedCopy(vs []int64) []int64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

// p50us is the median of latencies in ns, in µs.
func p50us(lat []int64) float64 { return percentile(sortedCopy(lat), 0.5) / 1e3 }
