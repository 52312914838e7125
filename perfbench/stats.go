package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the "inclusive" method of
// Python's statistics.quantiles: rank h = (n-1)·p/100 over the sorted
// sample. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	h := float64(len(s)-1) * p / 100
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method: position (n+1)·k/4 over the sorted sample, 1-based), which is
// how the benchmark's steadiness rule is evaluated. Samples shorter than
// two return NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(k int) float64 {
		m := float64(n+1) * float64(k) / 4
		j := int(math.Floor(m))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := m - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure bounds are compared against.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the p-th percentile of xs, the tail latency, with the
// number of samples strictly above it.
func tail(xs []float64, p float64) (v float64, beyond int) {
	v = percentile(xs, p)
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	return v, beyond
}
