package milp

import (
	"math"

	"repro/internal/lp"
	"repro/internal/trace"
)

// dive runs the root diving heuristic: starting from the root-optimal
// LP, it repeatedly fixes the brancher's chosen column to its nearest
// integer and re-optimizes, descending one root-to-leaf path of the
// tree. An integral, feasible end point becomes the first incumbent —
// found for the cost of one dive instead of a whole subtree — which
// seeds the pruning bound for every worker of the search that follows.
// On the paper's models, where the optimum usually has zero
// communication cost, the dive routinely lands on an optimal point and
// the search degenerates to a pure optimality proof.
//
// The dive is purely heuristic: an infeasible fix is flipped once to
// the opposite bound, and a second failure (or a dominated bound)
// abandons the dive. The solver state is snapshotted before and
// restored after, so the search starts from the untouched root basis.
// Incumbent installation goes through acceptCandidate, which
// re-validates integrality and feasibility against the problem's own
// row data — the dive cannot install an invalid point.
func (s *solver) dive() {
	o := &s.sh.obs
	t0 := o.clock()
	snap := s.lps.Snapshot()
	found := false
	x := s.lps.Solution()
	for step := 0; step <= len(s.opt.IntVars); step++ {
		if s.ctx.Err() != nil {
			break
		}
		z := s.lps.Objective()
		if s.bound(z) >= s.sh.incumbent()-1e-9 {
			break // the path is already dominated
		}
		col := -1
		if s.brancher != nil {
			col, _ = s.brancher.Select(x, s.lps.Bound)
		}
		if col < 0 {
			col, _ = s.mostFractional(x)
		}
		if col < 0 {
			// integral over the watched and declared columns: complete
			// auxiliary variables if the model needs it, then install
			xc := x
			if s.opt.Complete != nil {
				if c := s.opt.Complete(x); c != nil {
					xc = c
				}
			}
			before := s.sh.incumbent()
			s.acceptCandidate(xc, math.Inf(-1), false)
			found = s.sh.incumbent() < before-1e-9
			break
		}
		v := 0.0
		if x[col] >= 0.5 {
			v = 1
		}
		lo, hi := s.lps.Bound(col)
		s.lps.SetBound(col, v, v)
		if s.lps.ReOptimize() != lp.StatusOptimal {
			// flip once, then give up
			s.lps.SetBound(col, 1-v, 1-v)
			if s.lps.ReOptimize() != lp.StatusOptimal {
				s.lps.SetBound(col, lo, hi)
				break
			}
		}
		x = s.lps.Solution()
	}
	s.lps.Restore(snap)
	o.lap(trace.PhaseDive, t0)
	msg := "dive: no incumbent"
	if found {
		msg = "dive: incumbent found"
	}
	e := trace.Event{Kind: trace.KindDive, Msg: msg}
	if inc := s.sh.incumbent(); !math.IsInf(inc, 0) {
		e.HasIncumbent, e.Incumbent = true, inc
	}
	o.tr.Emit(e) // nil-safe
}
