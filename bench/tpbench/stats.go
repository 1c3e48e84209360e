package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for no samples and does not reorder xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond is the number of samples that lie above the nearest-rank p-th
// percentile of n samples. A percentile is reported only when at least
// minBeyond samples lie beyond it; fewer make it one outlier's value.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

const minBeyond = 10

// geomean is the geometric mean of positive samples (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartiles returns the first quartile, the median and the third
// quartile of xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the method the run-to-run spread of
// BENCHMARK.json is judged with. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
