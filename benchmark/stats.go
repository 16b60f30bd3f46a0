package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0..1) of sorted by nearest rank: the
// smallest sample with at least a share q of the samples at or below it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median returns the middle of vals (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals by the method of
// Python's statistics.quantiles(vals, n=4) — exclusive, interpolating at
// position q*(n+1) — so the harness's spread is the driver's spread.
func quartiles(vals []float64) (q1, q3 float64) {
	n := len(vals)
	if n < 2 {
		if n == 1 {
			return vals[0], vals[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spreadPct is the interquartile range of vals as a percentage of their
// median — the disturbance gauge used for slices within a run and for runs
// within a set.
func spreadPct(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m) * 100
}
