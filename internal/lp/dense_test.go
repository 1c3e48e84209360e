package lp

import "math"

// This file holds the dense-tableau engine, the reference lp's
// differential tests (FuzzDifferential, TestEnginesAgreeSweep and the
// Farkas tests) hold the revised engine to. It plugs into the Solver's
// engine seam and keeps the full tableau tab = B^{-1}A' (row-major,
// m x ntot), updated by Gauss-Jordan elimination on every pivot, so
// each quantity the revised engine recomputes through FTRAN or BTRAN is
// read straight off it.

// denseEngine is the dense-tableau implementation of engine.
type denseEngine struct {
	tab   []float64 // m x ntot tableau, row-major B^{-1}A'
	nzbuf []int32   // scratch: pivot-row nonzero support
}

// newDenseSolver builds the dense-tableau reference solver for p. It
// supports Solve, SetBound, SetRowBounds, ReOptimize and Farkas capture;
// SetObj, Clone, Snapshot/Restore and AppendRows need the revised
// engine.
func newDenseSolver(p *Problem) (*Solver, error) {
	s, err := newSolverState(p)
	if err != nil {
		return nil, err
	}
	s.eng = &denseEngine{tab: make([]float64, s.m*s.ntot)}
	s.reset()
	return s, nil
}

// reset loads the all-logical basis's tableau [A | I] from the original
// rows and recomputes the basic values.
func (e *denseEngine) reset(s *Solver) {
	for i := range e.tab {
		e.tab[i] = 0
	}
	for i := 0; i < s.m; i++ {
		idx, val := s.rows.row(i)
		trow := e.tab[i*s.ntot : (i+1)*s.ntot]
		for k, j := range idx {
			trow[j] = val[k]
		}
		trow[s.n+i] = 1
	}
	e.recomputeBeta(s)
}

// recomputeBeta recomputes all basic values from nonbasic values.
func (e *denseEngine) recomputeBeta(s *Solver) {
	for i := 0; i < s.m; i++ {
		trow := e.tab[i*s.ntot : (i+1)*s.ntot]
		v := 0.0
		for j := 0; j < s.ntot; j++ {
			if s.vstat[j] != basic && s.nbVal[j] != 0 && trow[j] != 0 {
				v += trow[j] * s.nbVal[j]
			}
		}
		s.beta[i] = -v
	}
}

// shiftNonbasic adjusts basic values after nonbasic variable j moved by
// delta.
func (e *denseEngine) shiftNonbasic(s *Solver, j int, delta float64) {
	for i := 0; i < s.m; i++ {
		if a := e.tab[i*s.ntot+j]; a != 0 {
			s.beta[i] -= a * delta
		}
	}
}

// ensure has nothing to do: the tableau is never stale.
func (e *denseEngine) ensure(*Solver) bool { return true }

// restoreDuals recomputes d = c - c_B^T (B^{-1} A') from the tableau.
func (e *denseEngine) restoreDuals(s *Solver) {
	copy(s.d, s.c)
	for i := 0; i < s.m; i++ {
		cb := s.c[s.basis[i]]
		if cb == 0 {
			continue
		}
		trow := e.tab[i*s.ntot : (i+1)*s.ntot]
		for j := 0; j < s.ntot; j++ {
			if trow[j] != 0 {
				s.d[j] -= cb * trow[j]
			}
		}
	}
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
}

// primal iterates while the basis is primal feasible, driving
// reduced costs to dual feasibility. Entering rule: Dantzig (most
// negative violation), falling back to Bland's rule after a run of
// degenerate pivots.
func (e *denseEngine) primal(s *Solver) Status {
	limit := s.maxIter()
	for iter := 0; iter < limit; iter++ {
		if s.expired() {
			return StatusIterLimit
		}
		q := e.pricePrimal(s)
		if q < 0 {
			return StatusOptimal
		}
		sigma := 1.0 // direction of motion for the entering variable
		if s.vstat[q] == atUpper || (s.vstat[q] == atFree && s.d[q] > 0) {
			sigma = -1
		}
		leave, step, hitUpper, flip := e.ratioPrimal(s, q, sigma)
		if math.IsInf(step, 1) {
			return StatusUnbounded
		}
		s.Iterations++
		s.noteDegenerate(step)
		if flip {
			// entering variable jumps to its other bound; basis unchanged
			e.shiftNonbasic(s, q, sigma*step)
			if sigma > 0 {
				s.vstat[q], s.nbVal[q] = atUpper, s.hi[q]
			} else {
				s.vstat[q], s.nbVal[q] = atLower, s.lo[q]
			}
			continue
		}
		e.pivot(s, leave, q, sigma*step, hitUpper)
	}
	return StatusIterLimit
}

// pricePrimal selects the entering variable, or -1 at optimality.
//
// Under Bland's rule it is the exact lowest-index full scan the
// anti-cycling argument requires. Otherwise it uses candidate-list
// partial pricing: first re-validate the cached candidate set from the
// previous pivots, then — only if that is empty — rebuild it by
// scanning a rotating window of columns, stopping at the first window
// that yields a violation. Optimality is only declared after the
// cursor wraps the full column range without finding one, which is
// exactly the certificate a full scan produces.
func (e *denseEngine) pricePrimal(s *Solver) int {
	if s.bland {
		for j := 0; j < s.ntot; j++ {
			if s.primalViol(j) > optTol {
				return j
			}
		}
		return -1
	}
	best, bestViol := -1, optTol
	keep := s.pCand[:0]
	for _, jj := range s.pCand {
		j := int(jj)
		if viol := s.primalViol(j); viol > optTol {
			keep = append(keep, jj)
			if viol > bestViol {
				best, bestViol = j, viol
			}
		}
	}
	s.pCand = keep
	if best >= 0 {
		s.Counters.CandidateHits++
		return best
	}
	window := s.ntot / 8
	if window < minWindow {
		window = minWindow
	}
	for scanned := 0; scanned < s.ntot; {
		s.Counters.WindowScans++
		for k := 0; k < window && scanned < s.ntot; k++ {
			j := s.pCur
			if s.pCur++; s.pCur == s.ntot {
				s.pCur = 0
			}
			scanned++
			if viol := s.primalViol(j); viol > optTol {
				if len(s.pCand) < candCap {
					s.pCand = append(s.pCand, int32(j))
				}
				if viol > bestViol {
					best, bestViol = j, viol
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1 // full wrap, nothing violated: optimal
}

// ratioPrimal runs the bounded-variable ratio test for entering
// variable q moving in direction sigma. It returns the leaving row,
// the step length, whether the leaving basic variable hits its upper
// bound, and whether the move is a bound flip of q itself.
func (e *denseEngine) ratioPrimal(s *Solver, q int, sigma float64) (leave int, step float64, hitUpper, flip bool) {
	step = math.Inf(1)
	if !math.IsInf(s.hi[q], 1) && !math.IsInf(s.lo[q], -1) {
		step = s.hi[q] - s.lo[q]
		flip = true
	}
	leave = -1
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		a := e.tab[i*s.ntot+q]
		if a > -pivTol && a < pivTol {
			continue
		}
		rate := -a * sigma // d beta[i] / d step
		b := s.basis[i]
		var room float64
		var hitsUpper bool
		if rate > 0 {
			if math.IsInf(s.hi[b], 1) {
				continue
			}
			room = s.hi[b] - s.beta[i]
			hitsUpper = true
		} else {
			if math.IsInf(s.lo[b], -1) {
				continue
			}
			room = s.beta[i] - s.lo[b]
			hitsUpper = false
		}
		if room < 0 {
			room = 0
		}
		r := room / math.Abs(rate)
		better := false
		switch {
		case r < step-tieTol:
			better = true
		case r < step+tieTol && leave < 0:
			better = true // beats the bound-flip limit on a tie
		case r < step+tieTol && leave >= 0:
			if s.bland {
				better = s.basis[i] < s.basis[leave]
			} else {
				// Tie: prefer a decisively larger pivot for stability,
				// but when pivot magnitudes tie too, break toward the
				// lowest basis index. Near-equal magnitudes must not
				// decide — float noise in |a| would then order pivots
				// differently in a cloned worker's re-updated tableau,
				// and serial vs parallel solves would diverge.
				aa := math.Abs(a)
				switch {
				case aa > bestPiv+tieTol:
					better = true
				case aa > bestPiv-tieTol:
					better = s.basis[i] < s.basis[leave]
				}
			}
		}
		if better {
			leave, step, hitUpper, flip = i, r, hitsUpper, false
			bestPiv = math.Abs(a)
		}
	}
	if leave < 0 && flip {
		// the entering variable's own bound range is the binding limit
		return -1, step, false, true
	}
	return leave, step, hitUpper, false
}

// dual iterates while reduced costs are dual feasible, driving
// basic values into their bounds. Leaving rule: largest bound
// violation; entering rule: dual ratio test (Bland fallback on
// degeneracy).
func (e *denseEngine) dual(s *Solver) Status {
	limit := s.maxIter()
	for iter := 0; iter < limit; iter++ {
		if s.expired() {
			return StatusIterLimit
		}
		r, below := s.priceDual()
		if r < 0 {
			return StatusOptimal // primal feasible; dual feasibility maintained
		}
		q := e.ratioDual(s, r, below)
		if q < 0 {
			s.Counters.FarkasChecks++
			if e.farkasCertified(s, r) {
				return StatusInfeasible
			}
			s.Counters.FarkasRejected++
			return statusSuspect
		}
		b := s.basis[r]
		var target float64
		if below {
			target = s.lo[b]
		} else {
			target = s.hi[b]
		}
		// step that lands the leaving variable exactly on its bound
		a := e.tab[r*s.ntot+q]
		delta := (s.beta[r] - target) / a
		s.Iterations++
		s.noteDegenerate(math.Abs(delta))
		e.pivot(s, r, q, delta, !below)
	}
	return StatusIterLimit
}

// ratioDual selects the entering variable for leaving row r. below
// indicates the leaving basic variable violates its lower bound (needs
// to increase). Returns -1 when the row proves infeasibility.
func (e *denseEngine) ratioDual(s *Solver, r int, below bool) int {
	trow := e.tab[r*s.ntot : (r+1)*s.ntot]
	q := -1
	bestRatio := math.Inf(1)
	bestPiv := 0.0
	for j := 0; j < s.ntot; j++ {
		if s.vstat[j] == basic || s.lo[j] == s.hi[j] {
			continue
		}
		a := trow[j]
		if a > -pivTol && a < pivTol {
			continue
		}
		// eligibility: moving j within its free direction must push
		// beta[r] toward the violated bound (d beta[r]/d x_j = -a).
		eligible := false
		switch s.vstat[j] {
		case atLower: // x_j may increase
			eligible = (below && a < 0) || (!below && a > 0)
		case atUpper: // x_j may decrease
			eligible = (below && a > 0) || (!below && a < 0)
		case atFree:
			eligible = true
		}
		if !eligible {
			continue
		}
		ratio := math.Abs(s.d[j] / a)
		if s.bland {
			if q < 0 || ratio < bestRatio-tieTol {
				q, bestRatio = j, ratio
			}
			continue
		}
		// Tie handling mirrors ratioPrimal: a tied ratio only displaces
		// the incumbent on a decisively larger pivot magnitude; a
		// near-equal magnitude keeps the earlier (lowest-index) column,
		// so the selection is deterministic across serial and cloned
		// tableaus that differ by float noise.
		aa := math.Abs(a)
		switch {
		case ratio < bestRatio-tieTol:
			q, bestRatio, bestPiv = j, ratio, aa
		case ratio < bestRatio+tieTol && aa > bestPiv+tieTol:
			q, bestRatio, bestPiv = j, ratio, aa
		}
	}
	return q
}

// farkasCertified certifies an infeasibility verdict on row r. Row r of
// the tableau carries the basis-inverse multipliers in its logical
// columns, y_i = tab[r][n+i]; certifyRay judges them against the
// original rows.
func (e *denseEngine) farkasCertified(s *Solver, r int) bool {
	trow := e.tab[r*s.ntot : (r+1)*s.ntot]
	return s.certifyRay(trow[s.n : s.n+s.m])
}

// pivot moves entering variable q by delta (signed), makes it basic in
// row r, and turns the current basic variable of r nonbasic at its
// upper (hitUpper) or lower bound. The tableau and reduced costs are
// updated in place.
func (e *denseEngine) pivot(s *Solver, r, q int, delta float64, hitUpper bool) {
	// 1. move the entering variable: all basic values respond
	newVal := s.nbVal[q] + delta
	if delta != 0 {
		e.shiftNonbasic(s, q, delta)
	}
	// 2. swap basis membership
	leave := s.basis[r]
	if hitUpper {
		s.vstat[leave], s.nbVal[leave] = atUpper, s.hi[leave]
	} else {
		s.vstat[leave], s.nbVal[leave] = atLower, s.lo[leave]
	}
	s.inRow[leave] = -1
	s.basis[r] = q
	s.inRow[q] = r
	s.vstat[q] = basic
	s.beta[r] = newVal
	// 3. eliminate column q from all other rows. The pivot row is
	// usually sparse, so gather its nonzero support once and only
	// touch those columns in every target row.
	trow := e.tab[r*s.ntot : (r+1)*s.ntot]
	piv := trow[q]
	inv := 1 / piv
	if cap(e.nzbuf) < s.ntot {
		e.nzbuf = make([]int32, s.ntot)
	}
	nz := e.nzbuf[:0]
	for j := 0; j < s.ntot; j++ {
		if trow[j] != 0 {
			trow[j] *= inv
			nz = append(nz, int32(j))
		}
	}
	trow[q] = 1
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		orow := e.tab[i*s.ntot : (i+1)*s.ntot]
		f := orow[q]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			orow[j] -= f * trow[j]
		}
		orow[q] = 0
	}
	// 4. reduced costs: d_j -= d_q * tab[r][j] (normalized row)
	dq := s.d[q]
	if dq != 0 {
		for _, j := range nz {
			s.d[j] -= dq * trow[j]
		}
	}
	s.d[q] = 0
}
