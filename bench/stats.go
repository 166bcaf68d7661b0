package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method the
// regression driver applies to repeated runs), so a spread printed here
// can be compared with the driver's. v needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of v, 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// spread is the interquartile distance of v as a share of its median —
// the steadiness figure every bound in BENCHMARK.json is judged against.
// 0 with fewer than two values or a zero median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics §1): a p99 over fewer than ~1000 samples is one
// outlier's latency, not a percentile.
const minBeyond = 10

// percentile returns the q-quantile of sorted (ascending) by nearest
// rank and how many samples lie strictly beyond that rank. Callers
// refuse to report the value when beyond < minBeyond.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx], len(sorted) - 1 - idx
}
