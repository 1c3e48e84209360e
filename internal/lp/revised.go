package lp

import (
	"math"
	"time"

	"repro/internal/trace"
)

// This file is the revised simplex engine every solve runs, the only
// production implementation of the Solver's engine seam: bounded-variable
// primal/dual pivoting with the basis kept as a sparse LU factorization
// (lu.go) instead of a dense tableau B^{-1}A'. The tableau quantities a
// pivot needs are recomputed on demand:
//
//	entering column  tab[:,q] = B^{-1} a_q      — one FTRAN
//	pivot row        tab[r,:] = (B^{-T}e_r)^T A' — one BTRAN + row scatter
//
// so a pivot costs O(factor nnz touched + pivot-row nnz) instead of a
// dense tableau's O(m·ntot) elimination. Primal pricing uses devex
// reference weights over a candidate list refilled by rotating windows,
// declaring optimality only after a full wrap; the dual side prices by
// largest violation (priceDual, simplex.go).
//
// lp's differential tests hold this engine to a dense-tableau reference
// (FuzzDifferential): identical statuses, objectives agreeing within
// feasTol, the same Farkas certification of infeasibility verdicts
// (certifyRay — this engine's ray is the BTRAN'd unit vector itself),
// the same degeneracy → Bland escalation, and deterministic
// tie-breaking (ratio tests scan candidates in ascending index order,
// with the reference's exact tie rules).

// maxEtas bounds the eta file length before the basis is refactorized;
// the eta-nnz trigger below refactorizes earlier when updates fill in
// faster than the factorization they amend.
const maxEtas = 64

// devexResetThresh: a reference weight beyond it means the frame has
// drifted far from where the weights were seeded; restart them at 1.
const devexResetThresh = 1e12

// revisedState carries everything the revised engine adds to a Solver.
type revisedState struct {
	a  *csc     // structural columns of A, immutable, shared by clones
	lu *basisLU // factorized basis + eta file

	col []float64 // m: FTRAN result, the entering tableau column
	rho []float64 // m: BTRAN result, the basis-inverse row (Farkas ray)

	// alpha is the pivot row tab[r,:] scattered from rho. Entries are
	// valid only when stamped with the current generation, so clearing
	// between pivots is O(1).
	alpha []float64
	aseen []int32
	agen  int32
	apat  []int32 // alpha's nonzero pattern, scatter order

	wts        []float64 // devex reference weights, ntot
	devexReset bool      // weights overflowed; reseed at next pricing

	// stale marks factors that no longer reflect s.basis (after Clone,
	// Restore or a failed update); betaStale defers basic-value
	// recomputation across a batch of bound edits made while stale.
	stale     bool
	betaStale bool
}

func newRevisedState(n, m int, a *csc) *revisedState {
	return &revisedState{
		a:     a,
		lu:    newBasisLU(m),
		col:   make([]float64, m),
		rho:   make([]float64, m),
		alpha: make([]float64, n+m),
		aseen: make([]int32, n+m),
		apat:  make([]int32, 0, n+m),
		wts:   make([]float64, n+m),
	}
}

// alphaAt returns pivot-row entry j of the last revPivotRow, 0 when
// untouched by the scatter.
func (rv *revisedState) alphaAt(j int) float64 {
	if rv.aseen[j] == rv.agen {
		return rv.alpha[j]
	}
	return 0
}

// revFactorize rebuilds the LU factors from the current basis, dropping
// the eta file. Returns false when the basis is numerically singular.
func (s *Solver) revFactorize() bool {
	var t0 time.Time
	if s.Prof != nil {
		t0 = time.Now()
	}
	ok := s.rev.lu.factorize(s.basis, s.n, s.rev.a)
	if ok {
		s.Counters.Factorizations++
		s.Counters.BasisNNZ = int64(s.rev.lu.basisNNZ)
		s.Counters.FactorNNZ = int64(s.rev.lu.luNNZ)
		s.rev.stale = false
	}
	if s.Prof != nil {
		s.Prof.Observe(trace.PhaseFactorize, time.Since(t0).Nanoseconds())
	}
	return ok
}

// ensure brings the factorization (and, if deferred, the basic values)
// in sync with the logical state — the lazy half of the
// Clone/Snapshot/Restore contract, which copies only logical state and
// marks the factors stale. Returns false when the recorded basis turns
// out numerically singular; the caller falls back to reset().
func (rv *revisedState) ensure(s *Solver) bool {
	if rv.stale {
		if !s.revFactorize() {
			return false
		}
	}
	if rv.betaStale {
		s.revRecomputeBeta()
		rv.betaStale = false
	}
	return true
}

// reset factorizes the all-logical basis Solver.reset installed (the
// identity: always succeeds), reseeds the devex weights and recomputes
// the basic values.
func (rv *revisedState) reset(s *Solver) {
	for j := range rv.wts {
		rv.wts[j] = 1
	}
	rv.devexReset = false
	rv.betaStale = false
	s.revFactorize()
	s.revRecomputeBeta()
}

// revFtranCol computes the entering tableau column B^{-1} a_q into
// rev.col (dense, position space).
func (s *Solver) revFtranCol(q int) {
	rv := s.rev
	col := rv.col
	for i := range col {
		col[i] = 0
	}
	if q < s.n {
		a := rv.a
		for t := a.ptr[q]; t < a.ptr[q+1]; t++ {
			col[a.row[t]] = a.val[t]
		}
	} else {
		col[q-s.n] = 1
	}
	rv.lu.ftran(col)
	s.Counters.FTRANs++
}

// revPivotRow computes tableau row r: rho = B^{-T} e_r, then
// alpha = rho^T [A|I] scattered across the rows rho touches. alpha is
// read back through alphaAt / apat.
func (s *Solver) revPivotRow(r int) {
	rv := s.rev
	rho := rv.rho
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	rv.lu.btran(rho)
	s.Counters.BTRANs++
	if rv.agen == math.MaxInt32 {
		for j := range rv.aseen {
			rv.aseen[j] = 0
		}
		rv.agen = 0
	}
	rv.agen++
	rv.apat = rv.apat[:0]
	for i := 0; i < s.m; i++ {
		y := rho[i]
		if y == 0 {
			continue
		}
		rv.addAlpha(s.n+i, y) // logical column e_i
		idx, val := s.rows.row(i)
		for k, j := range idx {
			rv.addAlpha(j, y*val[k])
		}
	}
}

func (rv *revisedState) addAlpha(j int, v float64) {
	if rv.aseen[j] == rv.agen {
		rv.alpha[j] += v
		return
	}
	rv.aseen[j] = rv.agen
	rv.alpha[j] = v
	rv.apat = append(rv.apat, int32(j))
}

// revRecomputeBeta recomputes all basic values from nonbasic values by
// one FTRAN of the aggregated nonbasic activity.
func (s *Solver) revRecomputeBeta() {
	rv := s.rev
	x := rv.col
	for i := range x {
		x[i] = 0
	}
	a := rv.a
	for j := 0; j < s.n; j++ {
		if s.vstat[j] == basic || s.nbVal[j] == 0 {
			continue
		}
		v := s.nbVal[j]
		for t := a.ptr[j]; t < a.ptr[j+1]; t++ {
			x[a.row[t]] -= a.val[t] * v
		}
	}
	for i := 0; i < s.m; i++ {
		if s.vstat[s.n+i] != basic && s.nbVal[s.n+i] != 0 {
			x[i] -= s.nbVal[s.n+i]
		}
	}
	rv.lu.ftran(x)
	s.Counters.FTRANs++
	copy(s.beta, x)
}

// shiftNonbasic adjusts basic values after nonbasic j moved by delta:
// beta -= delta · B^{-1} a_j. While the factors are stale (bound edits
// right after Clone/Restore), the whole recomputation is deferred to
// ensure — one FTRAN for the batch instead of one per edit.
func (rv *revisedState) shiftNonbasic(s *Solver, j int, delta float64) {
	if rv.stale || rv.betaStale {
		rv.betaStale = true
		return
	}
	s.revFtranCol(j)
	col := rv.col
	for i := 0; i < s.m; i++ {
		if col[i] != 0 {
			s.beta[i] -= col[i] * delta
		}
	}
}

// revSetObjBasic applies an objective edit on basic variable j to the
// reduced costs: d -= dc · tab[r,:] with r = inRow[j], one BTRAN + row
// scatter. Returns false when the stale factors cannot be rebuilt (the
// caller resets instead).
func (s *Solver) revSetObjBasic(j int, dc float64) bool {
	if s.rev.stale && !s.rev.ensure(s) {
		return false
	}
	s.revPivotRow(s.inRow[j])
	rv := s.rev
	for _, jj := range rv.apat {
		k := int(jj)
		if s.vstat[k] != basic {
			s.d[k] -= dc * rv.alpha[k]
		}
	}
	// basic reduced costs are zero by definition
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
	return true
}

// restoreDuals recomputes d = c - c_B^T B^{-1} [A|I] from scratch
// (phase-1 exit): y = B^{-T} c_B by one BTRAN, then a row scatter.
func (rv *revisedState) restoreDuals(s *Solver) {
	y := rv.rho
	any := false
	for i := 0; i < s.m; i++ {
		y[i] = s.c[s.basis[i]]
		if y[i] != 0 {
			any = true
		}
	}
	copy(s.d, s.c)
	if any {
		rv.lu.btran(y)
		s.Counters.BTRANs++
		for i := 0; i < s.m; i++ {
			yi := y[i]
			if yi == 0 {
				continue
			}
			s.d[s.n+i] -= yi
			idx, val := s.rows.row(i)
			for k, j := range idx {
				s.d[j] -= yi * val[k]
			}
		}
	}
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
}

// revPivotAgree cross-checks the pivot element as seen by the FTRAN'd
// column (col[r]) and the BTRAN'd row (alpha[q]). Disagreement flags a
// degraded eta file: the caller refactorizes and redoes the iteration.
func (s *Solver) revPivotAgree(r, q int) bool {
	cv, av := s.rev.col[r], s.rev.alphaAt(q)
	if math.Abs(cv) < pivTol {
		return false
	}
	scale := math.Abs(cv)
	if a := math.Abs(av); a > scale {
		scale = a
	}
	return math.Abs(cv-av) <= 1e-6*(1+scale)
}

// revRefactorDue reports whether the eta file has grown past the
// refactorization policy: a hard count bound, or more update fill than
// a fresh factorization is worth.
func (s *Solver) revRefactorDue() bool {
	f := s.rev.lu
	return f.nEtas() >= maxEtas || f.etaNNZ() > 2*f.luNNZ+s.m
}

// revPricePrimal selects the entering variable under devex pricing:
// among columns whose reduced cost is violated (primalViol > optTol),
// pick the largest viol²/weight. The candidate list is re-validated
// first; only when it is empty are rotating windows of columns scanned,
// and optimality is declared only after a full wrap finds no violation.
// Bland's rule bypasses weights entirely with the exact lowest-index
// full scan its anti-cycling argument requires.
func (s *Solver) revPricePrimal() int {
	if s.bland {
		for j := 0; j < s.ntot; j++ {
			if s.primalViol(j) > optTol {
				return j
			}
		}
		return -1
	}
	rv := s.rev
	if rv.devexReset {
		for j := range rv.wts {
			rv.wts[j] = 1
		}
		rv.devexReset = false
	}
	best, bestScore := -1, 0.0
	keep := s.pCand[:0]
	for _, jj := range s.pCand {
		j := int(jj)
		if viol := s.primalViol(j); viol > optTol {
			keep = append(keep, jj)
			if score := viol * viol / rv.wts[j]; score > bestScore {
				best, bestScore = j, score
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
				if score := viol * viol / rv.wts[j]; score > bestScore {
					best, bestScore = j, score
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1 // full wrap, nothing violated: optimal
}

// revRatioPrimal runs the bounded-variable ratio test for entering
// variable q moving in direction sigma over the FTRAN'd entering column.
// It returns the leaving row, the step length, whether the leaving basic
// variable hits its upper bound, and whether the move is a bound flip of
// q itself. Rows are scanned in ascending order.
func (s *Solver) revRatioPrimal(q int, sigma float64) (leave int, step float64, hitUpper, flip bool) {
	col := s.rev.col
	step = math.Inf(1)
	if !math.IsInf(s.hi[q], 1) && !math.IsInf(s.lo[q], -1) {
		step = s.hi[q] - s.lo[q]
		flip = true
	}
	leave = -1
	bestPiv := 0.0
	for i := 0; i < s.m; i++ {
		a := col[i]
		if a > -pivTol && a < pivTol {
			continue
		}
		rate := -a * sigma
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
				// differently in a cloned worker's refactorized basis,
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

// revRatioDual selects the entering variable for leaving row r from the
// scattered pivot row alpha; below indicates the leaving basic variable
// violates its lower bound (needs to increase). It returns -1 when the
// row proves infeasibility. The column scan is a full ascending sweep,
// so entering-column selection is deterministic.
func (s *Solver) revRatioDual(r int, below bool) int {
	rv := s.rev
	q := -1
	bestRatio := math.Inf(1)
	bestPiv := 0.0
	for j := 0; j < s.ntot; j++ {
		if s.vstat[j] == basic || s.lo[j] == s.hi[j] {
			continue
		}
		a := rv.alphaAt(j)
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
		// a tied ratio only displaces the incumbent on a decisively
		// larger pivot magnitude; a near-equal magnitude keeps the
		// earlier (lowest-index) column, for the same determinism as
		// revRatioPrimal's tie rule
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

// revPivot applies the pivot (entering q by delta, leaving row r to the
// hitUpper bound): basic values shift along the FTRAN'd column, reduced
// costs and devex weights update along the scattered pivot row, and the
// column is appended to the eta file. The caller checks revRefactorDue
// afterwards and refactorizes OUTSIDE its pivot-update profiling lap,
// so the factorize sub-phase is never double-counted under update.
func (s *Solver) revPivot(r, q int, delta float64, hitUpper bool) {
	rv := s.rev
	col := rv.col
	newVal := s.nbVal[q] + delta
	if delta != 0 {
		for i := 0; i < s.m; i++ {
			if col[i] != 0 {
				s.beta[i] -= col[i] * delta
			}
		}
	}
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
	// reduced costs: d_j -= d_q · alpha_j/alpha_q over the pivot row
	aq := rv.alphaAt(q)
	dq := s.d[q]
	if dq != 0 && aq != 0 {
		f := dq / aq
		for _, jj := range rv.apat {
			j := int(jj)
			if s.vstat[j] != basic {
				s.d[j] -= f * rv.alpha[j]
			}
		}
	}
	s.d[q] = 0
	// devex reference weights, from the same pivot row
	if aq != 0 {
		wq := rv.wts[q]
		aq2 := aq * aq
		for _, jj := range rv.apat {
			j := int(jj)
			if s.vstat[j] == basic {
				continue
			}
			if cand := wq * rv.alpha[j] * rv.alpha[j] / aq2; cand > rv.wts[j] {
				rv.wts[j] = cand
				if cand > devexResetThresh {
					rv.devexReset = true
				}
			}
		}
		wl := wq / aq2
		if wl < 1 {
			wl = 1
		}
		rv.wts[leave] = wl
	}
	s.Counters.EtaNNZ += int64(rv.lu.appendEta(r, col))
}

// primal iterates while the basis is primal feasible, driving reduced
// costs to dual feasibility. Entering rule: devex (revPricePrimal),
// falling back to Bland's rule after a run of degenerate pivots.
func (rv *revisedState) primal(s *Solver) Status {
	limit := s.maxIter()
	prof := s.Prof
	var tl time.Time
	for iter := 0; iter < limit; iter++ {
		if s.expired() {
			return StatusIterLimit
		}
		if prof != nil {
			tl = time.Now()
		}
		q := s.revPricePrimal()
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhasePricing, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if q < 0 {
			return StatusOptimal
		}
		sigma := 1.0
		if s.vstat[q] == atUpper || (s.vstat[q] == atFree && s.d[q] > 0) {
			sigma = -1
		}
		s.revFtranCol(q)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseFTRAN, now.Sub(tl).Nanoseconds())
			tl = now
		}
		leave, step, hitUpper, flip := s.revRatioPrimal(q, sigma)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseRatio, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if math.IsInf(step, 1) {
			return StatusUnbounded
		}
		if flip {
			s.Iterations++
			s.noteDegenerate(step)
			col := rv.col
			delta := sigma * step
			for i := 0; i < s.m; i++ {
				if col[i] != 0 {
					s.beta[i] -= col[i] * delta
				}
			}
			if sigma > 0 {
				s.vstat[q], s.nbVal[q] = atUpper, s.hi[q]
			} else {
				s.vstat[q], s.nbVal[q] = atLower, s.lo[q]
			}
			if prof != nil {
				prof.Observe(trace.PhaseUpdate, time.Since(tl).Nanoseconds())
			}
			continue
		}
		s.revPivotRow(leave)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseBTRAN, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if !s.revPivotAgree(leave, q) && rv.lu.nEtas() > 0 {
			// eta file has drifted: rebuild exact factors and redo the
			// iteration from them
			if !s.revFactorize() {
				return StatusIterLimit
			}
			continue
		}
		s.Iterations++
		s.noteDegenerate(step)
		s.revPivot(leave, q, sigma*step, hitUpper)
		if prof != nil {
			prof.Observe(trace.PhaseUpdate, time.Since(tl).Nanoseconds())
		}
		if s.revRefactorDue() && !s.revFactorize() {
			return StatusIterLimit
		}
	}
	return StatusIterLimit
}

// dual iterates while reduced costs are dual feasible, driving basic
// values into their bounds. Leaving rule: largest bound violation
// (priceDual); entering rule: the dual ratio test (Bland fallback on
// degeneracy). The pivot row comes from one BTRAN, and an infeasibility
// verdict's multipliers are the BTRAN'd unit vector itself, certified
// against the original rows by certifyRay.
func (rv *revisedState) dual(s *Solver) Status {
	limit := s.maxIter()
	prof := s.Prof
	var tl time.Time
	for iter := 0; iter < limit; iter++ {
		if s.expired() {
			return StatusIterLimit
		}
		if prof != nil {
			tl = time.Now()
		}
		r, below := s.priceDual()
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhasePricing, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if r < 0 {
			return StatusOptimal
		}
		s.revPivotRow(r)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseBTRAN, now.Sub(tl).Nanoseconds())
			tl = now
		}
		q := s.revRatioDual(r, below)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseRatio, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if q < 0 {
			if rv.lu.nEtas() > 0 {
				// never conclude infeasibility off eta-file arithmetic:
				// rebuild exact factors and re-derive the row first
				if !s.revFactorize() {
					return StatusIterLimit
				}
				continue
			}
			s.Counters.FarkasChecks++
			certified := s.certifyRay(rv.rho)
			if prof != nil {
				prof.Observe(trace.PhaseFarkas, time.Since(tl).Nanoseconds())
			}
			if certified {
				return StatusInfeasible
			}
			s.Counters.FarkasRejected++
			return statusSuspect
		}
		s.revFtranCol(q)
		if prof != nil {
			now := time.Now()
			prof.Observe(trace.PhaseFTRAN, now.Sub(tl).Nanoseconds())
			tl = now
		}
		if !s.revPivotAgree(r, q) && rv.lu.nEtas() > 0 {
			if !s.revFactorize() {
				return StatusIterLimit
			}
			continue
		}
		b := s.basis[r]
		var target float64
		if below {
			target = s.lo[b]
		} else {
			target = s.hi[b]
		}
		a := rv.col[r]
		delta := (s.beta[r] - target) / a
		s.Iterations++
		s.noteDegenerate(math.Abs(delta))
		s.revPivot(r, q, delta, !below)
		if prof != nil {
			prof.Observe(trace.PhaseUpdate, time.Since(tl).Nanoseconds())
		}
		if s.revRefactorDue() && !s.revFactorize() {
			return StatusIterLimit
		}
	}
	return StatusIterLimit
}
