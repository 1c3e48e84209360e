package lp

import (
	"fmt"
	"math"
)

// CutRow is a valid inequality over the structural variables, destined
// for Solver.AppendRows: Lo <= sum Val[k] * x[Idx[k]] <= Hi. The MILP
// layer's root strengthening (knapsack covers) produces these; they
// must be satisfied by every integer-feasible point of the model they
// are appended to, or the search built on them is unsound.
type CutRow struct {
	Name string
	Idx  []int
	Val  []float64
	Lo   float64
	Hi   float64
}

// AppendRows appends extra constraint rows to a solver in place — the
// row-count twin of SetBound/SetRowBounds, extending the live-edit
// surface so a branch-and-bound root can be strengthened with cutting
// planes without rebuilding the solver.
//
// The warm-start contract is preserved: each new row receives a fresh
// logical variable that enters the basis (its column is a unit vector,
// so the basis stays nonsingular), existing reduced costs are untouched
// and the new logicals get reduced cost zero, so a previously
// dual-feasible basis stays dual feasible and ReOptimize repairs any
// primal violation of the new rows with the dual simplex — exactly the
// bound-edit re-optimization pattern. The column form is rebuilt and
// the extended basis refactorized lazily.
//
// Each cut is normalized as AddRow normalizes a row: each column's
// coefficients sum in input order, zero sums drop out, and the columns
// come out ascending. The rows are appended to the solver's own row
// store, which Clones and the source Problem share full, so the first
// append copies and they are unaffected. Snapshots taken before an
// append no longer match the solver's dimensions and must not be
// Restored into it.
func (s *Solver) AppendRows(cuts []CutRow) error {
	k := len(cuts)
	if k == 0 {
		return nil
	}
	for _, c := range cuts {
		if len(c.Idx) != len(c.Val) {
			return fmt.Errorf("lp: AppendRows %q: %d indices vs %d values", c.Name, len(c.Idx), len(c.Val))
		}
		if c.Lo > c.Hi || math.IsNaN(c.Lo) || math.IsNaN(c.Hi) {
			return fmt.Errorf("lp: AppendRows %q: bad range [%v,%v]", c.Name, c.Lo, c.Hi)
		}
		for t, j := range c.Idx {
			if j < 0 || j >= s.n {
				return fmt.Errorf("lp: AppendRows %q: variable %d out of range", c.Name, j)
			}
			if math.IsInf(c.Val[t], 0) || math.IsNaN(c.Val[t]) {
				return fmt.Errorf("lp: AppendRows %q: non-finite coefficient on variable %d", c.Name, j)
			}
		}
	}
	for _, c := range cuts {
		s.rows.add(c.Idx, c.Val, c.Lo, c.Hi)
	}

	// Values the new logicals take at the current point (g = -a·x),
	// computed before any other state mutation.
	gval := make([]float64, k)
	for j := range gval {
		idx, val := s.rows.row(s.m + j)
		v := 0.0
		for t, col := range idx {
			v += val[t] * s.value(col)
		}
		gval[j] = -v
	}

	for j, c := range cuts {
		// logical of new row m+j sits at column n+(m+j) = ntot+j, so all
		// existing structural and logical column indices are unchanged
		s.c = append(s.c, 0)
		s.lo = append(s.lo, -c.Hi)
		s.hi = append(s.hi, -c.Lo)
		s.nbVal = append(s.nbVal, 0)
		s.d = append(s.d, 0) // basic: reduced cost zero by definition
		s.vstat = append(s.vstat, basic)
		s.inRow = append(s.inRow, s.m+j)
		s.basis = append(s.basis, s.ntot+j)
		s.beta = append(s.beta, gval[j])
	}
	s.m, s.ntot = s.m+k, s.ntot+k
	rv := newRevisedState(s.n, s.m, buildCSC(s.n, &s.rows))
	for j := range rv.wts {
		rv.wts[j] = 1 // devex frame reseeded for the new dimensions
	}
	rv.stale = true // factorize lazily from the extended basis
	s.rev, s.eng = rv, rv
	s.status = StatusUnknown
	s.pCand, s.dCand = s.pCand[:0], s.dCand[:0]
	s.pCur, s.dCur = 0, 0
	s.fbuf = nil
	s.farkasRay = nil
	return nil
}
