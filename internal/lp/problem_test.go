package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAddRow is the map-and-scan AddRow that the sort-and-merge one
// replaced, kept as its reference: it sums each column's coefficients
// through a map in input order, then scans every column of the model
// for the row's nonzeros.
func refAddRow(nvars int, name string, idx []int, coef []float64, lo, hi float64) ([]int, []float64, error) {
	if len(idx) != len(coef) {
		return nil, nil, fmt.Errorf("lp: AddRow %q: %d indices vs %d coefficients", name, len(idx), len(coef))
	}
	if lo > hi {
		return nil, nil, fmt.Errorf("lp: AddRow %q: empty range [%v,%v]", name, lo, hi)
	}
	acc := map[int]float64{}
	for k, j := range idx {
		if j < 0 || j >= nvars {
			return nil, nil, fmt.Errorf("lp: AddRow %q: variable %d out of range", name, j)
		}
		acc[j] += coef[k]
	}
	var ri []int
	var rv []float64
	for j := 0; j < nvars; j++ {
		if v, ok := acc[j]; ok && v != 0 {
			ri = append(ri, j)
			rv = append(rv, v)
		}
	}
	return ri, rv, nil
}

// randomRow draws a row over nvars columns in one of five shapes:
// empty, strictly ascending, ascending with repeats, shuffled with
// repeats, or with some columns' entries cancelling to zero. Values
// come from a palette whose sums depend on their order, with explicit
// and negative zeros, infinities and NaN.
func randomRow(r *rand.Rand, nvars int) ([]int, []float64) {
	palette := []float64{0.1, 0.2, 0.3, -0.1, 1.0 / 3, 1, -1, 2.5, 1e16, -1e16, 0, math.Copysign(0, -1)}
	val := func() float64 {
		if r.Intn(40) == 0 {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[r.Intn(3)]
		}
		return palette[r.Intn(len(palette))]
	}
	n := r.Intn(12)
	idx := make([]int, 0, n)
	coef := make([]float64, 0, n)
	switch shape := r.Intn(5); shape {
	case 0: // empty
	case 1: // strictly ascending
		for j := 0; j < nvars && len(idx) < n; j++ {
			if r.Intn(2) == 0 {
				idx = append(idx, j)
				coef = append(coef, val())
			}
		}
	default:
		for k := 0; k < n; k++ {
			idx = append(idx, r.Intn(nvars))
			coef = append(coef, val())
		}
		if shape == 2 {
			for a := 1; a < len(idx); a++ { // ascending, repeats kept
				for b := a; b > 0 && idx[b-1] > idx[b]; b-- {
					idx[b-1], idx[b] = idx[b], idx[b-1]
					coef[b-1], coef[b] = coef[b], coef[b-1]
				}
			}
		}
		if shape == 4 && n > 0 { // a column whose entries cancel
			j, c := idx[r.Intn(n)], palette[r.Intn(len(palette))]
			at := r.Intn(len(idx) + 1)
			idx = append(idx[:at], append([]int{j}, idx[at:]...)...)
			coef = append(coef[:at], append([]float64{c}, coef[at:]...)...)
			idx = append(idx, j)
			coef = append(coef, -c)
		}
	}
	return idx, coef
}

// TestPropertyAddRowMatchesReference checks AddRow against refAddRow on
// random rows: the same columns in the same order, bit-identical sums,
// rows handed out capped at their length, the caller's slices
// untouched, and the same error, with no row added, for each invalid
// input.
func TestPropertyAddRowMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		nvars := 1 + r.Intn(20)
		p := &Problem{}
		for j := 0; j < nvars; j++ {
			p.AddBinary(Name(fmt.Sprintf("x%d", j)), 0)
		}
		for k := 0; k < 8; k++ {
			idx, coef := randomRow(r, nvars)
			lo, hi := -Inf, 1.0
			switch r.Intn(12) {
			case 0: // length mismatch
				coef = append(coef, 1)
			case 1: // empty range
				lo, hi = 2, 1
			case 2: // a variable out of range
				if len(idx) > 0 {
					idx[r.Intn(len(idx))] = []int{-1, nvars, nvars + 7}[r.Intn(3)]
				}
			}
			idxIn := append([]int(nil), idx...)
			coefIn := append([]float64(nil), coef...)
			wantIdx, wantVal, wantErr := refAddRow(nvars, "r", idx, coef, lo, hi)
			rows := p.NumRows()
			err := p.AddRow(Name("r"), idx, coef, lo, hi)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("trial %d: AddRow(%v, %v) error %v, reference %v", trial, idxIn, coefIn, err, wantErr)
			}
			for a := range idx {
				if idx[a] != idxIn[a] || math.Float64bits(coef[a]) != math.Float64bits(coefIn[a]) {
					t.Fatalf("trial %d: AddRow modified its input: %v %v, was %v %v", trial, idx, coef, idxIn, coefIn)
				}
			}
			if err != nil {
				if p.NumRows() != rows {
					t.Fatalf("trial %d: failed AddRow added a row", trial)
				}
				continue
			}
			gotIdx, gotVal := p.Row(p.NumRows() - 1)
			if len(gotIdx) != len(wantIdx) || len(gotVal) != len(wantVal) {
				t.Fatalf("trial %d: AddRow(%v, %v) = %v %v, reference %v %v", trial, idxIn, coefIn, gotIdx, gotVal, wantIdx, wantVal)
			}
			for a := range wantIdx {
				if gotIdx[a] != wantIdx[a] || math.Float64bits(gotVal[a]) != math.Float64bits(wantVal[a]) {
					t.Fatalf("trial %d: AddRow(%v, %v) = %v %v, reference %v %v", trial, idxIn, coefIn, gotIdx, gotVal, wantIdx, wantVal)
				}
			}
			if cap(gotIdx) != len(gotIdx) || cap(gotVal) != len(gotVal) {
				t.Fatalf("trial %d: row stored with cap %d/%d for %d entries", trial, cap(gotIdx), cap(gotVal), len(gotIdx))
			}
		}
	}
}

// TestAddRowSteadyStateAllocs pins AddRow's cost in allocations: none.
// A row is appended to the problem's flat row store, whose arrays grow
// by doubling, and a literal key to its name list, so the amortised
// growth averages out to zero allocations per call over the runs, for
// ascending and unsorted rows alike.
func TestAddRowSteadyStateAllocs(t *testing.T) {
	p := &Problem{}
	for j := 0; j < 64; j++ {
		p.AddBinary(Name("x"), 0)
	}
	for _, tc := range []struct {
		name string
		idx  []int
	}{
		{"ascending", []int{1, 5, 9, 20, 33, 63}},
		{"unsorted", []int{33, 5, 63, 1, 20, 5}},
	} {
		coef := []float64{1, -1, 2, 0.5, 3, 1}
		if err := p.AddRow(Name("warm"), tc.idx, coef, -Inf, 1); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(1000, func() {
			_ = p.AddRow(Name("r"), tc.idx, coef, -Inf, 1)
		}); a != 0 {
			t.Errorf("%s AddRow allocates %.0f times per row, want 0", tc.name, a)
		}
	}
}
