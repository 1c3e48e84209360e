package milp

import (
	"math"
	"strconv"

	"repro/internal/lp"
	"repro/internal/trace"
)

// Cut-generation budgets. A handful of strong cuts tightens the root
// bound where it matters; large cut loops would bloat every node LP of
// the search that follows.
const maxCoverCuts = 16

// coverCuts separates minimal-cover inequalities from the knapsack-like
// rows of the problem: for an LE row sum a_j x_j <= b over binary
// columns with positive coefficients, any minimal set C with
// sum_{j in C} a_j > b admits the valid cut sum_{j in C} x_j <= |C|-1.
// These are exactly valid by combinatorial argument — no tableau
// arithmetic involved — so they are certification-safe. x is the
// fractional root LP point; only cuts it violates by at least 1e-4 are
// returned.
func (s *solver) coverCuts(x []float64, limit int) []lp.CutRow {
	var out []lp.CutRow
	for i := 0; i < s.prob.NumRows() && len(out) < limit; i++ {
		lo, hi := s.prob.RowRange(i)
		if !math.IsInf(lo, -1) || math.IsInf(hi, 1) || hi < 0 {
			continue
		}
		idx, val := s.prob.Row(i)
		total := 0.0
		ok := len(idx) >= 2
		for k, j := range idx {
			if !s.isInt[j] || val[k] <= 0 {
				ok = false
				break
			}
			if l, h := s.prob.Bounds(j); l < -intTol || h > 1+intTol {
				ok = false
				break
			}
			total += val[k]
		}
		if !ok || total <= hi {
			continue
		}
		// Greedy cover: take columns by descending x_j until the weights
		// exceed the capacity, then minimalize by dropping redundant
		// members (largest weight first — dropping only strengthens the
		// cut, since each removal trades a -1 on the rhs for a -x_j <= 1
		// on the lhs).
		order := make([]int, len(idx))
		for k := range order {
			order[k] = k
		}
		for a := 1; a < len(order); a++ {
			for b := a; b > 0 && x[idx[order[b]]] > x[idx[order[b-1]]]; b-- {
				order[b], order[b-1] = order[b-1], order[b]
			}
		}
		cover := order[:0]
		sum := 0.0
		for _, k := range order {
			cover = append(cover, k)
			sum += val[k]
			if sum > hi {
				break
			}
		}
		if sum <= hi {
			continue
		}
		for a := 0; a < len(cover); {
			if sum-val[cover[a]] > hi {
				sum -= val[cover[a]]
				cover = append(cover[:a], cover[a+1:]...)
				continue
			}
			a++
		}
		lhs := 0.0
		cols := make([]int, len(cover))
		ones := make([]float64, len(cover))
		for a, k := range cover {
			cols[a] = idx[k]
			ones[a] = 1
			lhs += x[idx[k]]
		}
		rhs := float64(len(cover) - 1)
		if lhs < rhs+1e-4 {
			continue // not violated at the root point
		}
		for a := 1; a < len(cols); a++ {
			for b := a; b > 0 && cols[b] < cols[b-1]; b-- {
				cols[b], cols[b-1] = cols[b-1], cols[b]
			}
		}
		out = append(out, lp.CutRow{
			Name: "cover[" + s.prob.RowName(i) + "]",
			Idx:  cols, Val: ones, Lo: math.Inf(-1), Hi: rhs,
		})
	}
	return out
}

// applyRootCuts strengthens the root relaxation in place: it separates
// cover cuts from the row data, appends them to the live solver via
// lp.AppendRows, re-optimizes, and — on success — swaps s.prob for a
// cut-augmented clone so every downstream judgement (node feasibility
// checks, incumbent validation, exact certification) is rendered
// against the model the search actually runs on. The caller's problem
// is never mutated.
//
// On any numerical trouble the cuts are discarded: the solver is
// rebuilt cold on the original model and 0 is returned. Returns the
// number of cuts applied.
func (s *solver) applyRootCuts() (int, error) {
	o := &s.sh.obs
	defer o.lap(trace.PhaseCutGen, o.clock())
	x := s.lps.Solution()
	cuts := s.coverCuts(x, maxCoverCuts)
	if len(cuts) == 0 {
		return 0, nil
	}
	pc := s.prob.Clone()
	for _, c := range cuts {
		if err := pc.AddRow(lp.Name(c.Name), c.Idx, c.Val, c.Lo, c.Hi); err != nil {
			return 0, nil // malformed cut: keep the original model
		}
	}
	before := s.lps.Objective()
	discard := func() error {
		fresh, err := lp.NewSolver(s.prob)
		if err != nil {
			return err
		}
		fresh.Ctx = s.ctx
		fresh.Prof = o.prof
		if st := fresh.Solve(); st != lp.StatusOptimal {
			// the original root solved optimally moments ago; a cold
			// re-solve can only fail on cancellation
			s.lps = fresh
			return s.ctx.Err()
		}
		s.lps = fresh
		return nil
	}
	if err := s.lps.AppendRows(cuts); err != nil {
		return 0, discard()
	}
	if st := s.lps.ReOptimize(); st != lp.StatusOptimal {
		return 0, discard()
	}
	s.prob = pc
	if o.tr != nil || o.rec != nil {
		for _, c := range cuts {
			o.tr.Emit(trace.Event{Kind: trace.KindCut, NNZ: len(c.Idx),
				Bound: s.lps.Objective(), Msg: c.Name})
			cr := trace.CutRec{Name: c.Name,
				Idx: append([]int(nil), c.Idx...), Val: append([]float64(nil), c.Val...)}
			if !math.IsInf(c.Lo, -1) {
				lo := c.Lo
				cr.Lo = &lo
			}
			if !math.IsInf(c.Hi, 1) {
				hi := c.Hi
				cr.Hi = &hi
			}
			o.rec.Cut(cr)
		}
		if o.tr != nil {
			o.tr.Emit(trace.Event{Kind: trace.KindCut, NNZ: len(cuts),
				Bound: s.lps.Objective(),
				Msg:   "root strengthened: " + trimFloat(before) + " -> " + trimFloat(s.lps.Objective())})
		}
	}
	return len(cuts), nil
}

// trimFloat formats a bound for the cut-summary event message.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', 8, 64)
}
