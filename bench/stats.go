package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the middle pair for
// even n); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the benchmark driver computes spreads from: -aa must
// judge a run set the way the driver will. It needs at least two values;
// with fewer both quartiles collapse onto the median.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		m := median(xs)
		return m, m
	}
	s := sorted(xs)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median — the
// run-to-run noise figure the regression bounds are calibrated against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// tailLadder lists the percentiles a timing may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.95, 0.99, 0.999}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten of n samples beyond it — any higher percentile would
// be decided by a handful of points. ok is false when even the median
// has fewer than ten samples above it (n < 20).
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := nearestRank(p, len(s)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// nearestRank is the 1-based rank of the p-quantile among n sorted
// samples; the epsilon absorbs products like 0.9*100 = 90.00000000000001.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n) - 1e-9))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
