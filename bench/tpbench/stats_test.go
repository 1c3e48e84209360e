package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must not rely on order
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{seq(100), 50, 50},
		{seq(100), 90, 90},
		{seq(100), 99, 99},
		{seq(1000), 99, 990},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{3, 1, 2}, 100, 3},
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%d samples, p%g) = %g, want %g", len(tc.xs), tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestBeyondTenSamples(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10}, // p99 needs 1000 samples
		{999, 99, 9},
		{100, 90, 10}, // p90 needs 100
		{99, 90, 9},
		{115, 90, 11},
		{0, 99, 0},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1, 100) = %g, want 10", got)
	}
	if got := geomean([]float64{2, 8, 4}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8, 4) = %g, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean() = %g, want 0", got)
	}
}

func TestFasterHalf(t *testing.T) {
	start := time.Now()
	var samples []sample
	// windows 0..4 answer 5, 1, 3, 4 and 2 instances; 0.5 s past them a
	// partial window answers 9
	for i, n := range []int{5, 1, 3, 4, 2, 9} {
		for k := 0; k < n; k++ {
			end := start.Add(time.Duration(i)*trimWindow + trimWindow/4)
			samples = append(samples, sample{class: "x", end: end, ms: float64(i), n: 1})
		}
	}
	kept, span := fasterHalf(samples, start, 5*trimWindow+trimWindow/4)
	got := map[float64]int{}
	for _, s := range kept {
		got[s.ms]++
	}
	// the faster three of five whole windows: 0, 3 and 2
	if len(got) != 3 || got[0] != 5 || got[3] != 4 || got[2] != 3 || span != 3*trimWindow {
		t.Errorf("kept %v over %v, want windows 0, 2 and 3 over %v", got, span, 3*trimWindow)
	}
	if kept, span := fasterHalf(samples[:3], start, trimWindow); len(kept) != 3 || span != trimWindow {
		t.Errorf("a one-window run kept %d samples over %v, want all 3", len(kept), span)
	}
}

// TestQuartilesMatchPython pins the method to Python's
// statistics.quantiles(xs, n=4), which the run-to-run spread is judged
// with, values included: the method extrapolates for two samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{9}, 9, 9, 9},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}
