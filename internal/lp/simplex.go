package lp

import "math"

// This file holds the pricing, degeneracy and certification steps that
// do not depend on how the basis is represented. Conventions:
//
// The system is A'z = 0 where z = (x, g): every row i reads
// a_i·x + g_i = 0 with the logical g_i bounded in [-Hi_i, -Lo_i]. For
// basic variable b_r in row r the equation gives
// x_{b_r} = -sum_{nonbasic j} (B^{-1}A')[r][j]*z_j, the value cached in
// beta[r].
//
// Reduced costs d are maintained incrementally across pivots and stay
// exact up to roundoff: d_j = c_j - c_B^T (B^{-1}A')[:,j].

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
// primal feasible. Same candidate-list scheme as revPricePrimal,
// rotating over rows; primal feasibility is only declared after a full
// wrap.
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

// certifyRay validates a dual-simplex infeasibility verdict against the
// original problem data, independent of any drift the engine's basis
// representation may have accumulated. Given the candidate row
// multipliers y (the BTRAN'd unit vector of the infeasible row), it
// recomputes w = y^T [A|I] from the original rows and interval-evaluates
// it over the bound box.
//
// For ANY multiplier vector y the aggregated equation sum_j w_j z_j = 0
// holds for every point satisfying the row system, so if the range
// excludes 0 the box contains no feasible point. A drifted y merely
// weakens the certificate (the range then straddles 0 and certification
// fails); it can never prove a feasible problem infeasible. Cost is one
// pass over the matrix nonzeros.
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
		idx, val := s.rows.row(i)
		for k, j := range idx {
			w[j] += y * val[k]
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
