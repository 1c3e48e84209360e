package lp

import (
	"fmt"
	"math"
)

// PresolveResult summarizes what Presolve changed.
type PresolveResult struct {
	// RowsRemoved counts redundant or converted rows dropped.
	RowsRemoved int
	// BoundsTightened counts variable-bound improvements.
	BoundsTightened int
	// Infeasible is set when presolve proves the problem empty.
	Infeasible bool
}

// Presolve simplifies the problem in place without touching the
// column space, so solvers and callers keep their variable indices:
//
//   - singleton rows become variable bounds and are dropped,
//   - rows whose activity bounds already imply the row are dropped,
//   - activity bounds tighten variable bounds (one propagation pass
//     per round, iterated to a fixed point with a round cap),
//   - contradictions prove infeasibility.
//
// Presolve must run before NewSolver; running it afterwards leaves
// existing solvers and clones unaffected: a round that drops rows
// writes the kept ones to new arrays instead of compacting the shared
// store.
func (p *Problem) Presolve() PresolveResult {
	var res PresolveResult
	const maxRounds = 20
	var keep []int
	for round := 0; round < maxRounds; round++ {
		changed := false
		keep = keep[:0]
		for i := 0; i < p.NumRows(); i++ {
			idx, val := p.rows.row(i)
			lo, hi := p.RowRange(i)
			switch p.presolveRow(idx, val, lo, hi, &res) {
			case rowInfeasible:
				res.Infeasible = true
				return res
			case rowDrop:
				res.RowsRemoved++
				changed = true
			case rowKeep:
				keep = append(keep, i)
			case rowKeepTightened:
				keep = append(keep, i)
				changed = true
			}
		}
		if len(keep) < p.NumRows() {
			p.rows = p.rows.subset(keep)
			keys := make([]key, len(keep))
			for k, i := range keep {
				keys[k] = p.rowKeys[i]
			}
			p.rowKeys = keys
		}
		for j := range p.lo {
			if p.lo[j] > p.hi[j]+feasTol {
				res.Infeasible = true
				return res
			}
		}
		if !changed {
			break
		}
	}
	return res
}

type rowAction int

const (
	rowKeep rowAction = iota
	rowKeepTightened
	rowDrop
	rowInfeasible
)

// presolveRow analyzes one row, lo <= sum val_k x_idx_k <= hi, possibly
// tightening variable bounds.
func (p *Problem) presolveRow(idx []int, val []float64, rlo, rhi float64, res *PresolveResult) rowAction {
	if len(idx) == 0 {
		if rlo > feasTol || rhi < -feasTol {
			return rowInfeasible
		}
		return rowDrop
	}
	if len(idx) == 1 {
		// singleton: a*x in [lo,hi] <=> x in [lo/a, hi/a] (sign-aware)
		j, a := idx[0], val[0]
		lo, hi := rlo/a, rhi/a
		if a < 0 {
			lo, hi = hi, lo
		}
		if lo > p.lo[j]+feasTol {
			p.lo[j] = lo
			res.BoundsTightened++
		}
		if hi < p.hi[j]-feasTol {
			p.hi[j] = hi
			res.BoundsTightened++
		}
		if p.lo[j] > p.hi[j]+feasTol {
			return rowInfeasible
		}
		return rowDrop
	}
	// activity bounds
	minAct, maxAct := 0.0, 0.0
	for k, j := range idx {
		a := val[k]
		if a > 0 {
			minAct += a * p.lo[j]
			maxAct += a * p.hi[j]
		} else {
			minAct += a * p.hi[j]
			maxAct += a * p.lo[j]
		}
	}
	if minAct > rhi+feasTol || maxAct < rlo-feasTol {
		return rowInfeasible
	}
	if minAct >= rlo-feasTol && maxAct <= rhi+feasTol {
		return rowDrop // row can never bind
	}
	// bound propagation: for each var, the row implies
	// a_j x_j in [lo - (maxAct - contribMax), hi - (minAct - contribMin)]
	tightened := false
	for k, j := range idx {
		a := val[k]
		var cMin, cMax float64
		if a > 0 {
			cMin, cMax = a*p.lo[j], a*p.hi[j]
		} else {
			cMin, cMax = a*p.hi[j], a*p.lo[j]
		}
		restMin, restMax := minAct-cMin, maxAct-cMax
		if math.IsInf(restMin, 0) || math.IsInf(restMax, 0) {
			continue
		}
		implLo, implHi := math.Inf(-1), math.Inf(1)
		if !math.IsInf(rhi, 1) {
			implHi = rhi - restMin // a_j x_j <= hi - restMin
		}
		if !math.IsInf(rlo, -1) {
			implLo = rlo - restMax // a_j x_j >= lo - restMax
		}
		lo, hi := implLo/a, implHi/a
		if a < 0 {
			lo, hi = hi, lo
		}
		// Significance threshold is the shared feasTol, NOT a private
		// epsilon: propagation used to accept improvements down to 1e-9
		// here while every other presolve step (and the simplex's own
		// feasibility judgment) works at feasTol = 1e-7. Improvements in
		// the gap between the two are below the solver's resolution and
		// applying them just churned BoundsTightened and extra presolve
		// rounds on changes the simplex cannot see.
		if lo > p.lo[j]+feasTol && !math.IsInf(lo, -1) {
			p.lo[j] = lo
			res.BoundsTightened++
			tightened = true
		}
		if hi < p.hi[j]-feasTol && !math.IsInf(hi, 1) {
			p.hi[j] = hi
			res.BoundsTightened++
			tightened = true
		}
	}
	if tightened {
		return rowKeepTightened
	}
	return rowKeep
}

// TightenBinary rounds bounds of 0-1 variables after presolve: a lower
// bound above 0 becomes 1, an upper bound below 1 becomes 0. Returns
// an error when a binary variable's domain empties.
func (p *Problem) TightenBinary(cols []int) error {
	for _, j := range cols {
		if p.lo[j] > feasTol {
			p.lo[j] = 1
		}
		if p.hi[j] < 1-feasTol {
			p.hi[j] = 0
		}
		if p.lo[j] > p.hi[j] {
			return fmt.Errorf("lp: binary variable %d (%s) has empty domain after tightening", j, p.VarName(j))
		}
	}
	return nil
}
