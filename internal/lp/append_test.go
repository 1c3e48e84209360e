package lp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestAppendRowsMatchesColdSolve appends random extra rows to a solved
// random LP and cross-checks the warm re-optimization against a cold
// solve of the extended problem.
func TestAppendRowsMatchesColdSolve(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		p := randLP(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		s, err := NewSolver(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.Solve() != StatusOptimal {
			continue
		}
		n := p.NumVars()
		k := 1 + rng.Intn(3)
		cuts := make([]CutRow, k)
		pc := p.Clone()
		for c := range cuts {
			nz := 1 + rng.Intn(3)
			if nz > n {
				nz = n
			}
			idx := append([]int(nil), rng.Perm(n)[:nz]...)
			for a := 1; a < len(idx); a++ {
				for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
					idx[b], idx[b-1] = idx[b-1], idx[b]
				}
			}
			val := make([]float64, nz)
			for a := range val {
				for val[a] == 0 {
					val[a] = float64(rng.Intn(9)-4) / 2
				}
			}
			rhs := float64(rng.Intn(41)-20) / 2
			cuts[c] = CutRow{Name: "extra", Idx: idx, Val: val, Lo: math.Inf(-1), Hi: rhs}
			if err := pc.AddRow(Name("extra"), idx, val, math.Inf(-1), rhs); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if err := s.AppendRows(cuts); err != nil {
			t.Fatalf("seed %d: AppendRows: %v", seed, err)
		}
		warmStatus := s.ReOptimize()
		cold, err := NewSolver(pc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		coldStatus := cold.Solve()
		if warmStatus != coldStatus {
			t.Fatalf("seed %d: warm append status %v, cold solve %v", seed, warmStatus, coldStatus)
		}
		if warmStatus == StatusOptimal {
			zw, zc := s.Objective(), cold.Objective()
			if math.Abs(zw-zc) > 1e-6*(1+math.Abs(zc)) {
				t.Fatalf("seed %d: warm objective %v, cold %v", seed, zw, zc)
			}
			if err := pc.Feasible(s.Solution(), 1e-6); err != nil {
				t.Fatalf("seed %d: warm solution infeasible: %v", seed, err)
			}
		}
	}
}

// TestAppendRowsCloneIsolation verifies the copy-on-append contract:
// appending rows to a parent must not disturb a Clone taken earlier,
// which shares the original row slice.
func TestAppendRowsCloneIsolation(t *testing.T) {
	p := randLP(7)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != StatusOptimal {
		t.Skip("seed 7 not optimal")
	}
	want := s.Objective()
	c := s.Clone()
	if err := s.AppendRows([]CutRow{{Name: "tight", Idx: []int{0}, Val: []float64{1}, Lo: math.Inf(-1), Hi: s.value(0) - 1}}); err != nil {
		t.Fatal(err)
	}
	s.ReOptimize()
	if _, m := s.Dims(); m != p.NumRows()+1 {
		t.Fatalf("parent rows = %d, want %d", m, p.NumRows()+1)
	}
	if st := c.Solve(); st != StatusOptimal {
		t.Fatalf("clone re-solve: %v", st)
	}
	if got := c.Objective(); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Fatalf("clone objective %v, want %v", got, want)
	}
	if _, m := c.Dims(); m != p.NumRows() {
		t.Fatalf("clone rows = %d, want %d", m, p.NumRows())
	}
}

// TestPropertyAppendRowsNormalizesLikeAddRow checks that a cut
// AppendRows adds to a solver is stored exactly as AddRow stores the
// same row: the same columns and bit-identical values, on random rows
// with repeated, unsorted and cancelling columns and signed zeros. A cut
// with a non-finite coefficient gets AppendRows' own error and leaves
// the solver's rows as they were.
func TestPropertyAppendRowsNormalizesLikeAddRow(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		nvars := 1 + r.Intn(20)
		p := &Problem{}
		for j := 0; j < nvars; j++ {
			p.AddBinary(Name(""), 0)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			idx, coef := randomRow(r, nvars)
			finite := true
			for _, v := range coef {
				finite = finite && !math.IsInf(v, 0) && !math.IsNaN(v)
			}
			rows := s.rows.len()
			err := s.AppendRows([]CutRow{{Name: "cut", Idx: idx, Val: coef, Lo: math.Inf(-1), Hi: 1}})
			if !finite {
				if err == nil || !strings.Contains(err.Error(), `lp: AppendRows "cut": non-finite coefficient`) {
					t.Fatalf("trial %d: AppendRows(%v, %v) error %v, want non-finite", trial, idx, coef, err)
				}
				if s.rows.len() != rows {
					t.Fatalf("trial %d: rejected cut added a row", trial)
				}
				continue
			}
			if err != nil {
				t.Fatalf("trial %d: AppendRows(%v, %v): %v", trial, idx, coef, err)
			}
			if err := p.AddRow(Name("cut"), idx, coef, math.Inf(-1), 1); err != nil {
				t.Fatal(err)
			}
			gotIdx, gotVal := s.rows.row(s.rows.len() - 1)
			wantIdx, wantVal := p.Row(p.NumRows() - 1)
			if len(gotIdx) != len(wantIdx) {
				t.Fatalf("trial %d: cut %v %v stored as %v %v, AddRow stores %v %v", trial, idx, coef, gotIdx, gotVal, wantIdx, wantVal)
			}
			for a := range wantIdx {
				if gotIdx[a] != wantIdx[a] || math.Float64bits(gotVal[a]) != math.Float64bits(wantVal[a]) {
					t.Fatalf("trial %d: cut %v %v stored as %v %v, AddRow stores %v %v", trial, idx, coef, gotIdx, gotVal, wantIdx, wantVal)
				}
			}
		}
	}
}
