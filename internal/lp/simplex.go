package lp

import "math"

// This file holds the dense-tableau engine, kept as the reference the
// revised engine is differentially tested against, and the pricing
// and certification code both engines share. Conventions:
//
// The system is A'z = 0 where z = (x, g): every row i reads
// a_i·x + g_i = 0 with the logical g_i bounded in [-Hi_i, -Lo_i].
// tab is B^{-1}A' (row-major, m x ntot). For basic variable b_r in row
// r the equation gives x_{b_r} = -sum_{nonbasic j} tab[r][j]*z_j, the
// value cached in beta[r].
//
// Reduced costs d are maintained incrementally across pivots and stay
// exact up to roundoff: d_j = c_j - c_B^T tab[:,j].

// newDenseSolver builds the dense-tableau reference solver for p. It
// supports Solve, SetBound, SetRowBounds, ReOptimize and Farkas capture;
// SetObj, Clone, Snapshot/Restore and AppendRows need the revised
// engine.
func newDenseSolver(p *Problem) (*Solver, error) {
	s, err := newSolverState(p)
	if err != nil {
		return nil, err
	}
	s.tab = make([]float64, s.m*s.ntot)
	s.reset()
	return s, nil
}

// primalSimplex iterates while the basis is primal feasible, driving
// reduced costs to dual feasibility. Entering rule: Dantzig (most
// negative violation), falling back to Bland's rule after a run of
// degenerate pivots.
func (s *Solver) primalSimplex() Status {
	limit := s.maxIter()
	for iter := 0; iter < limit; iter++ {
		if s.expired(iter) {
			return StatusIterLimit
		}
		q := s.pricePrimal()
		if q < 0 {
			return StatusOptimal
		}
		sigma := 1.0 // direction of motion for the entering variable
		if s.vstat[q] == atUpper || (s.vstat[q] == atFree && s.d[q] > 0) {
			sigma = -1
		}
		leave, step, hitUpper, flip := s.ratioPrimal(q, sigma)
		if math.IsInf(step, 1) {
			return StatusUnbounded
		}
		s.Iterations++
		s.noteDegenerate(step)
		if flip {
			// entering variable jumps to its other bound; basis unchanged
			s.shiftNonbasic(q, sigma*step)
			if sigma > 0 {
				s.vstat[q], s.nbVal[q] = atUpper, s.hi[q]
			} else {
				s.vstat[q], s.nbVal[q] = atLower, s.lo[q]
			}
			continue
		}
		s.pivot(leave, q, sigma*step, hitUpper)
	}
	return StatusIterLimit
}

// Candidate-list pricing parameters: candCap bounds the cached
// candidate set, and the rotating rebuild scans windows of
// max(minWindow, ntot/8) columns (rows for the dual) at a time.
const (
	candCap   = 32
	minWindow = 64
)

// primalViol returns the dual-infeasibility of nonbasic column j under
// the Dantzig measure, or 0 when j is basic, fixed, or priced out.
func (s *Solver) primalViol(j int) float64 {
	switch s.vstat[j] {
	case atLower:
		if s.lo[j] == s.hi[j] {
			return 0 // fixed
		}
		return -s.d[j]
	case atUpper:
		if s.lo[j] == s.hi[j] {
			return 0
		}
		return s.d[j]
	case atFree:
		return math.Abs(s.d[j])
	}
	return 0 // basic
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
// exactly the certificate the old full scan produced.
func (s *Solver) pricePrimal() int {
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
func (s *Solver) ratioPrimal(q int, sigma float64) (leave int, step float64, hitUpper, flip bool) {
	step = math.Inf(1)
	if !math.IsInf(s.hi[q], 1) && !math.IsInf(s.lo[q], -1) {
		step = s.hi[q] - s.lo[q]
		flip = true
	}
	leave = -1
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		a := s.tab[i*s.ntot+q]
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

// dualSimplex iterates while reduced costs are dual feasible, driving
// basic values into their bounds. Leaving rule: largest bound
// violation; entering rule: dual ratio test (Bland fallback on
// degeneracy).
func (s *Solver) dualSimplex() Status {
	limit := s.maxIter()
	for iter := 0; iter < limit; iter++ {
		if s.expired(iter) {
			return StatusIterLimit
		}
		r, below := s.priceDual()
		if r < 0 {
			return StatusOptimal // primal feasible; dual feasibility maintained
		}
		q := s.ratioDual(r, below)
		if q < 0 {
			s.Counters.FarkasChecks++
			if s.farkasCertified(r) {
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
		a := s.tab[r*s.ntot+q]
		delta := (s.beta[r] - target) / a
		s.Iterations++
		s.noteDegenerate(math.Abs(delta))
		s.pivot(r, q, delta, !below)
	}
	return StatusIterLimit
}

// dualViol returns the bound violation of the basic variable in row i
// and whether it lies below its lower bound. At most one side can be
// violated since lo <= hi.
func (s *Solver) dualViol(i int) (float64, bool) {
	b := s.basis[i]
	if v := s.lo[b] - s.beta[i]; v > 0 {
		return v, true
	}
	return s.beta[i] - s.hi[b], false
}

// priceDual selects the row of the most infeasible basic variable,
// reporting whether it violates its lower bound. Returns -1 when
// primal feasible. Same candidate-list scheme as pricePrimal, rotating
// over rows; primal feasibility is only declared after a full wrap.
func (s *Solver) priceDual() (int, bool) {
	if s.bland {
		for i := 0; i < s.m; i++ {
			if viol, below := s.dualViol(i); viol > feasTol {
				return i, below
			}
		}
		return -1, false
	}
	best, bestViol, below := -1, feasTol, false
	keep := s.dCand[:0]
	for _, ii := range s.dCand {
		i := int(ii)
		if viol, bl := s.dualViol(i); viol > feasTol {
			keep = append(keep, ii)
			if viol > bestViol {
				best, bestViol, below = i, viol, bl
			}
		}
	}
	s.dCand = keep
	if best >= 0 {
		s.Counters.CandidateHits++
		return best, below
	}
	window := s.m / 8
	if window < minWindow {
		window = minWindow
	}
	for scanned := 0; scanned < s.m; {
		s.Counters.WindowScans++
		for k := 0; k < window && scanned < s.m; k++ {
			i := s.dCur
			if s.dCur++; s.dCur == s.m {
				s.dCur = 0
			}
			scanned++
			if viol, bl := s.dualViol(i); viol > feasTol {
				if len(s.dCand) < candCap {
					s.dCand = append(s.dCand, int32(i))
				}
				if viol > bestViol {
					best, bestViol, below = i, viol, bl
				}
			}
		}
		if best >= 0 {
			return best, below
		}
	}
	return -1, false // full wrap, all basics within bounds
}

// ratioDual selects the entering variable for leaving row r. below
// indicates the leaving basic variable violates its lower bound (needs
// to increase). Returns -1 when the row proves infeasibility.
func (s *Solver) ratioDual(r int, below bool) int {
	trow := s.tab[r*s.ntot : (r+1)*s.ntot]
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

// farkasCertified validates a dual-simplex infeasibility verdict
// against the original problem data, independent of any drift the
// incrementally-updated tableau may have accumulated.
//
// Row r of the tableau carries the basis-inverse multipliers in its
// logical columns: y_i = tab[r][n+i]. For ANY multiplier vector y the
// aggregated equation sum_j w_j z_j = 0 with w = y^T [A | I] holds for
// every point satisfying the row system, so recomputing w exactly from
// the stored rows and interval-evaluating it over the bound box gives a
// rigorous test: if the range excludes 0, the box contains no feasible
// point. A drifted y merely weakens the certificate (the range then
// straddles 0 and certification fails); it can never prove a feasible
// problem infeasible. Cost is one pass over the matrix nonzeros —
// negligible next to a single dense pivot.
func (s *Solver) farkasCertified(r int) bool {
	trow := s.tab[r*s.ntot : (r+1)*s.ntot]
	return s.certifyRay(trow[s.n : s.n+s.m])
}

// certifyRay is the engine-independent core of Farkas certification:
// given the candidate row multipliers y (the dense engine reads them
// out of the tableau's logical columns, the revised engine hands over
// the BTRAN'd unit vector directly), it recomputes w = y^T [A|I] from
// the original rows and interval-evaluates it over the bound box.
func (s *Solver) certifyRay(yv []float64) bool {
	if s.CaptureFarkas {
		// keep the multipliers for exact offline replay (FarkasRay)
		// even when the float check below rejects them: the exact
		// replay is a strictly stronger judge — accumulated roundoff in
		// w can spuriously widen the float interval (even to +-inf on
		// free logicals) where the rational recomputation cancels
		// exactly. optimize() clears the ray again if the verdict does
		// not survive the retry. The capture-off path stays copy- and
		// allocation-free.
		if cap(s.farkasRay) < s.m {
			s.farkasRay = make([]float64, s.m)
		}
		s.farkasRay = s.farkasRay[:s.m]
		copy(s.farkasRay, yv)
	}
	if cap(s.fbuf) < s.ntot {
		s.fbuf = make([]float64, s.ntot)
	}
	w := s.fbuf[:s.ntot]
	for j := range w {
		w[j] = 0
	}
	for i := 0; i < s.m; i++ {
		y := yv[i]
		if y == 0 {
			continue
		}
		w[s.n+i] = y
		row := s.origRows[i]
		for k, j := range row.idx {
			w[j] += y * row.val[k]
		}
	}
	// interval-evaluate sum_j w_j z_j over the box [lo, hi]
	rlo, rhi, mag := 0.0, 0.0, 0.0
	for j := 0; j < s.ntot; j++ {
		wj := w[j]
		if wj == 0 {
			continue
		}
		a, b := wj*s.lo[j], wj*s.hi[j]
		if a > b {
			a, b = b, a
		}
		rlo += a
		rhi += b
		if m := math.Abs(a); m > mag && !math.IsInf(m, 1) {
			mag = m
		}
		if m := math.Abs(b); m > mag && !math.IsInf(m, 1) {
			mag = m
		}
		if math.IsInf(rlo, -1) && math.IsInf(rhi, 1) {
			return false // unbounded in both directions: nothing provable
		}
	}
	// the slack must clear the roundoff of accumulating the interval
	// sums themselves; certification failing on a near-tolerance true
	// infeasibility only costs a refactorized re-solve, never an error
	tol := 1e-7 + 1e-9*mag
	return rlo > tol || rhi < -tol
}

// noteDegenerate tracks degenerate pivots and enables Bland's rule
// after a long run of them; any real progress resets the counter.
func (s *Solver) noteDegenerate(step float64) {
	if step <= degTol {
		s.degRun++
		if s.degRun > degLimit {
			s.bland = true
		}
		return
	}
	s.degRun = 0
	s.bland = false
}

// pivot moves entering variable q by delta (signed), makes it basic in
// row r, and turns the current basic variable of r nonbasic at its
// upper (hitUpper) or lower bound. The tableau and reduced costs are
// updated in place.
func (s *Solver) pivot(r, q int, delta float64, hitUpper bool) {
	// 1. move the entering variable: all basic values respond
	newVal := s.nbVal[q] + delta
	if delta != 0 {
		s.shiftNonbasic(q, delta)
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
	trow := s.tab[r*s.ntot : (r+1)*s.ntot]
	piv := trow[q]
	inv := 1 / piv
	if cap(s.nzbuf) < s.ntot {
		s.nzbuf = make([]int32, s.ntot)
	}
	nz := s.nzbuf[:0]
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
		orow := s.tab[i*s.ntot : (i+1)*s.ntot]
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
