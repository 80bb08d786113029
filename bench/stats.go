package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (mean of the middle two for an even
// count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so a spread
// computed here agrees with one computed by a driver written in Python.  It
// needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the first and third quartile of xs as a
// share of their median: the run-to-run noise measure every bound in
// BENCHMARK.json is judged against.  With fewer than two values, or a zero
// median, there is no spread to report and it returns 0.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the p-th percentile (0 < p < 100) of the ascending
// slice s by nearest rank.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile picks the highest of the usual tail percentiles that still
// leaves ten samples beyond it, so the reported tail is a measurement and
// not the single slowest sample.  With fewer than 20 samples it falls back
// to the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90} {
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}
