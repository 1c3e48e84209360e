package lp

import "fmt"

// Clone returns an independent deep copy of the solver: basis, bounds,
// basic values, nonbasic statuses, reduced costs and devex weights.
// Parent and clone may solve concurrently afterwards — only the
// immutable row store and its column-form copy are shared. This
// is the primitive the parallel branch-and-bound workers in
// internal/milp build on: clone once per worker, then branch with
// SetBound/ReOptimize as usual.
//
// The LU factors themselves are not copied: the clone carries the full
// logical state and refactorizes lazily on first use. A
// refactorization is a rebuild, not a pivot, so the warm-start contract
// — re-optimizing an optimal state takes zero pivots — holds.
//
// The clone starts with Iterations = 0 and zeroed Counters so callers
// can attribute work per worker; MaxIter, Ctx and Prof carry over (the
// phase profile's buckets are atomic, so parent and clone record into
// the shared profile safely).
func (s *Solver) Clone() *Solver {
	c := &Solver{
		n: s.n, m: s.m, ntot: s.ntot,
		c:       append([]float64(nil), s.c...),
		lo:      append([]float64(nil), s.lo...),
		hi:      append([]float64(nil), s.hi...),
		beta:    append([]float64(nil), s.beta...),
		basis:   append([]int(nil), s.basis...),
		inRow:   append([]int(nil), s.inRow...),
		vstat:   append([]varStatus(nil), s.vstat...),
		nbVal:   append([]float64(nil), s.nbVal...),
		d:       append([]float64(nil), s.d...),
		rows:    s.rows.full(), // AppendRows on either side copies
		status:  s.status,
		bland:   s.bland,
		degRun:  s.degRun,
		MaxIter: s.MaxIter,
		Ctx:     s.Ctx,
		Prof:    s.Prof,
	}
	rv := newRevisedState(s.n, s.m, s.rev.a) // column copy shared
	copy(rv.wts, s.rev.wts)
	rv.devexReset = s.rev.devexReset
	rv.stale = true // factorize lazily at first use
	c.rev, c.eng = rv, rv
	return c
}

// Snapshot captures the solver's bounds and basis so the exact state
// can be reinstated later with Restore. It records the logical state
// (basis rows, basic values, reduced costs, devex weights) and lets
// Restore refactorize lazily. Unlike Clone, a Snapshot is not a usable
// solver; it is a reusable buffer, and restoring into the owning solver
// is allocation-free. The intended pattern is a worker that anchors
// itself once at a known-good state (say the solved root relaxation)
// and re-anchors before every subproblem instead of paying for a fresh
// Clone.
type Snapshot struct {
	n, m   int
	c      []float64
	lo, hi []float64
	beta   []float64
	basis  []int
	inRow  []int
	vstat  []varStatus
	nbVal  []float64
	d      []float64
	wts    []float64
	status Status
	bland  bool
	degRun int
}

// Snapshot captures the current state into a new snapshot buffer.
func (s *Solver) Snapshot() *Snapshot {
	return &Snapshot{
		n: s.n, m: s.m,
		c:      append([]float64(nil), s.c...),
		lo:     append([]float64(nil), s.lo...),
		hi:     append([]float64(nil), s.hi...),
		beta:   append([]float64(nil), s.beta...),
		basis:  append([]int(nil), s.basis...),
		inRow:  append([]int(nil), s.inRow...),
		vstat:  append([]varStatus(nil), s.vstat...),
		nbVal:  append([]float64(nil), s.nbVal...),
		d:      append([]float64(nil), s.d...),
		wts:    append([]float64(nil), s.rev.wts...),
		status: s.status,
		bland:  s.bland,
		degRun: s.degRun,
	}
}

// Restore reinstates a state previously captured with Snapshot on this
// solver (or on the solver this one was cloned from). It copies into
// the solver's existing arrays without allocating; the factors are
// marked stale and rebuilt lazily at the next solve. Restore panics if
// the snapshot's dimensions do not match.
func (s *Solver) Restore(sn *Snapshot) {
	if sn.n != s.n || sn.m != s.m {
		panic(fmt.Sprintf("lp: Restore: snapshot is %dx%d, solver is %dx%d",
			sn.m, sn.n, s.m, s.n))
	}
	copy(s.c, sn.c)
	copy(s.lo, sn.lo)
	copy(s.hi, sn.hi)
	copy(s.beta, sn.beta)
	copy(s.basis, sn.basis)
	copy(s.inRow, sn.inRow)
	copy(s.vstat, sn.vstat)
	copy(s.nbVal, sn.nbVal)
	copy(s.d, sn.d)
	s.status = sn.status
	s.bland = sn.bland
	s.degRun = sn.degRun
	// pricing candidates refer to the replaced state; drop them
	s.pCand = s.pCand[:0]
	s.dCand = s.dCand[:0]
	copy(s.rev.wts, sn.wts)
	s.rev.stale = true
	s.rev.betaStale = false // beta restored exactly above
}
