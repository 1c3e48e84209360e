package lp

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// Status is the outcome of an LP solve.
type Status int

const (
	// StatusUnknown means the solver has not run yet.
	StatusUnknown Status = iota
	// StatusOptimal means an optimal basic solution was found.
	StatusOptimal
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusIterLimit means the iteration limit was hit.
	StatusIterLimit

	// statusSuspect is internal: the dual simplex concluded infeasible
	// but the verdict failed Farkas certification against the original
	// row data, so the incrementally-updated tableau may have drifted.
	// optimize retries from a fresh factorization; callers never see it.
	statusSuspect Status = -1
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return "unknown"
	}
}

// Counters are cheap instrumentation counters maintained by the pivot
// and pricing loops: plain integer increments on an already-owned
// struct, so keeping them always on costs nothing measurable and the
// trace layer can report them without touching the hot paths.
type Counters struct {
	// Refactorizations counts resets to the all-logical basis (at
	// construction, on Solve, and the certification-failure retries of
	// optimize).
	Refactorizations int64
	// FarkasChecks counts infeasibility verdicts submitted to Farkas
	// certification; FarkasRejected counts the ones that failed it and
	// forced a refactorized retry.
	FarkasChecks   int64
	FarkasRejected int64
	// WindowScans counts pricing windows scanned while rebuilding the
	// candidate list; CandidateHits counts pivots priced directly from
	// the cached candidate list without any window scan.
	WindowScans   int64
	CandidateHits int64
	// LU counters; all stay zero on the dense test reference.
	// Factorizations counts sparse LU (re)builds of the basis; FTRANs
	// and BTRANs the forward/backward factor solves; EtaNNZ the
	// product-form update entries appended over the lifetime (EtaNNZ /
	// Factorizations approximates fill per refactorization interval).
	Factorizations int64
	FTRANs         int64
	BTRANs         int64
	EtaNNZ         int64
	// BasisNNZ and FactorNNZ are gauges sampled at the last
	// factorization: nonzeros of the basis columns and of its L+U
	// factors. FactorNNZ/BasisNNZ is the fill-in ratio. Aggregation
	// keeps the maximum (the dominant worker's basis).
	BasisNNZ  int64
	FactorNNZ int64
}

// Add accumulates o into c (used to aggregate per-worker solvers).
func (c *Counters) Add(o Counters) {
	c.Refactorizations += o.Refactorizations
	c.FarkasChecks += o.FarkasChecks
	c.FarkasRejected += o.FarkasRejected
	c.WindowScans += o.WindowScans
	c.CandidateHits += o.CandidateHits
	c.Factorizations += o.Factorizations
	c.FTRANs += o.FTRANs
	c.BTRANs += o.BTRANs
	c.EtaNNZ += o.EtaNNZ
	if o.BasisNNZ > c.BasisNNZ {
		c.BasisNNZ = o.BasisNNZ
	}
	if o.FactorNNZ > c.FactorNNZ {
		c.FactorNNZ = o.FactorNNZ
	}
}

type varStatus int8

const (
	basic varStatus = iota
	atLower
	atUpper
	atFree // nonbasic free variable pinned at 0
)

// Solver solves a Problem by bounded-variable simplex and supports
// warm-started re-optimization after variable-bound changes, the
// mechanism branch-and-bound relies on.
//
// A Solver snapshots the Problem's rows at creation; later AddRow calls
// on the Problem are not seen. Variable bounds are owned by the Solver
// (SetBound) after creation.
type Solver struct {
	n    int // structural variables
	m    int // rows
	ntot int // n + m (structural + logical)

	c      []float64 // costs, logical costs are 0
	lo, hi []float64 // current bounds, logical bounds encode row ranges
	// eng runs the basis-dependent steps (see engine). Outside lp's
	// differential tests it is always rev, the sparse revised engine;
	// the operations only that engine supports (SetObj on a basic
	// variable, Clone, Snapshot/Restore, AppendRows) use rev directly.
	eng   engine
	rev   *revisedState
	beta  []float64 // values of basic variables per row
	basis []int     // variable basic in each row
	inRow []int     // row of a basic variable, -1 if nonbasic
	vstat []varStatus
	nbVal []float64 // value of nonbasic variables
	d     []float64 // reduced costs

	rows rowStore  // the problem's rows, shared and read in place
	fbuf []float64 // scratch: Farkas certificate aggregation

	// Candidate-list partial pricing state. The cached candidates are a
	// heuristic only: entries are re-validated before use and optimality
	// is never declared without a full wrap of the rotating cursor, so a
	// stale list can cost extra scans but never a wrong answer.
	pCand []int32 // primal: columns with recently-violated reduced costs
	pCur  int     // primal: rotating scan cursor
	dCand []int32 // dual: rows with recently-infeasible basic values
	dCur  int     // dual: rotating scan cursor

	status Status
	bland  bool
	degRun int
	// Iterations counts simplex pivots (including bound flips) over
	// the lifetime of the solver.
	Iterations int
	// Counters accumulates the engine's instrumentation counters over
	// the lifetime of the solver; see the Counters type. Like
	// Iterations, a Clone starts from zero so callers can attribute
	// work per worker.
	Counters Counters
	// MaxIter bounds pivots per Solve/ReOptimize call; 0 means the
	// default of max(20000, 200*(m+n)).
	MaxIter int
	// Ctx, when non-nil, is polled before every pivot: a cancelled or
	// expired context aborts the current Solve/ReOptimize with
	// StatusIterLimit before its next pivot. This is the
	// cooperative-cancellation and time-limit hook the MILP layer (and
	// through it the solve service) relies on.
	Ctx context.Context
	// Prof, when non-nil, receives per-phase wall-time attribution from
	// the pivot loops: pricing, ratio tests, pivot updates,
	// refactorizations and Farkas certifications. Nil (the default)
	// keeps the loops free of any clock reads; the warm ReOptimize
	// cycle stays allocation-free either way (both guarded by tests).
	// Clones share the parent's profile — its histogram buckets are
	// atomic, so parallel workers record into one profile safely.
	Prof *trace.Profile
	// CaptureFarkas, when set, makes a certified infeasibility verdict
	// keep a copy of its row multipliers, retrievable via FarkasRay for
	// exact offline replay. Off (the default) the verdict path performs
	// no copies and no allocations; Clone deliberately does not
	// propagate it, so certification of a root solve never taxes
	// branch-and-bound workers.
	CaptureFarkas bool
	farkasRay     []float64
}

// engine is the seam between a Solver and its basis representation:
// exactly the steps whose implementation depends on how B^{-1} is held.
// The revised engine (revisedState) is the only implementation solves
// run; lp's differential tests plug in a dense-tableau reference.
type engine interface {
	// reset rebuilds the representation of the all-logical basis that
	// Solver.reset has just installed, including the basic values.
	reset(s *Solver)
	// shiftNonbasic adjusts the basic values after nonbasic variable j
	// moved by delta.
	shiftNonbasic(s *Solver, j int, delta float64)
	// ensure brings deferred state up to date before a solve; false
	// means the recorded basis is singular and the caller must reset.
	ensure(s *Solver) bool
	// primal and dual run the primal and dual simplex from the current
	// basis to a verdict.
	primal(s *Solver) Status
	dual(s *Solver) Status
	// restoreDuals recomputes the reduced costs d = c - c_B^T B^{-1} A'
	// from scratch (phase-1 exit).
	restoreDuals(s *Solver)
}

// NewSolver builds a revised-simplex solver for p. The problem must
// have at least one variable. The solver reads p's rows in place, but
// it is independent of later changes to p: rows are never rewritten
// once stored, and bounds and costs are copied.
func NewSolver(p *Problem) (*Solver, error) {
	s, err := newSolverState(p)
	if err != nil {
		return nil, err
	}
	s.rev = newRevisedState(s.n, s.m, buildCSC(s.n, &s.rows))
	s.eng = s.rev
	s.reset()
	return s, nil
}

// newSolverState copies p into the engine-independent solver state; the
// caller attaches an engine and resets the basis.
func newSolverState(p *Problem) (*Solver, error) {
	n, m := p.NumVars(), p.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("lp: empty problem")
	}
	s := &Solver{
		n: n, m: m, ntot: n + m,
		c:     make([]float64, n+m),
		lo:    make([]float64, n+m),
		hi:    make([]float64, n+m),
		beta:  make([]float64, m),
		basis: make([]int, m),
		inRow: make([]int, n+m),
		vstat: make([]varStatus, n+m),
		nbVal: make([]float64, n+m),
		d:     make([]float64, n+m),
	}
	copy(s.c, p.obj)
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	s.rows = p.rows.full()
	for i := 0; i < m; i++ {
		// logical variable i: a_i·x + g_i = 0 with g_i in [-Hi, -Lo]
		s.lo[n+i] = -s.rows.hi[i]
		s.hi[n+i] = -s.rows.lo[i]
	}
	for j := 0; j < s.ntot; j++ {
		if s.lo[j] > s.hi[j] {
			return nil, fmt.Errorf("lp: variable %d has empty bound range", j)
		}
	}
	return s, nil
}

// reset restores the all-logical basis with nonbasic structural
// variables at cost-favourable bounds, then has the engine rebuild its
// representation of that basis (whose factorization is the identity
// and cannot fail).
func (s *Solver) reset() {
	var t0 time.Time
	if s.Prof != nil {
		t0 = time.Now()
	}
	s.Counters.Refactorizations++
	for i := 0; i < s.m; i++ {
		s.basis[i] = s.n + i
		s.inRow[s.n+i] = i
		s.vstat[s.n+i] = basic
	}
	for j := 0; j < s.n; j++ {
		s.inRow[j] = -1
		s.setNonbasicStart(j)
	}
	// basis costs are all zero (logicals), so d = c
	copy(s.d, s.c)
	s.status = StatusUnknown
	s.bland = false
	s.degRun = 0
	s.pCand = s.pCand[:0]
	s.pCur = 0
	s.dCand = s.dCand[:0]
	s.dCur = 0
	if s.Prof != nil {
		s.Prof.Observe(trace.PhaseRefactorize, time.Since(t0).Nanoseconds())
	}
	s.eng.reset(s)
}

// setNonbasicStart places nonbasic variable j on the bound favoured by
// its cost sign, falling back to whichever bound is finite.
func (s *Solver) setNonbasicStart(j int) {
	loF, hiF := !math.IsInf(s.lo[j], -1), !math.IsInf(s.hi[j], 1)
	prefUpper := s.c[j] < 0
	switch {
	case prefUpper && hiF:
		s.vstat[j], s.nbVal[j] = atUpper, s.hi[j]
	case !prefUpper && loF:
		s.vstat[j], s.nbVal[j] = atLower, s.lo[j]
	case hiF:
		s.vstat[j], s.nbVal[j] = atUpper, s.hi[j]
	case loF:
		s.vstat[j], s.nbVal[j] = atLower, s.lo[j]
	default:
		s.vstat[j], s.nbVal[j] = atFree, 0
	}
}

// value returns the current value of variable j.
func (s *Solver) value(j int) float64 {
	if s.vstat[j] == basic {
		return s.beta[s.inRow[j]]
	}
	return s.nbVal[j]
}

// Solution copies the structural solution into a new slice.
func (s *Solver) Solution() []float64 {
	x := make([]float64, s.n)
	for j := range x {
		x[j] = s.value(j)
	}
	return x
}

// Objective returns c·x for the current solution.
func (s *Solver) Objective() float64 {
	v := 0.0
	for j := 0; j < s.n; j++ {
		if s.c[j] != 0 {
			v += s.c[j] * s.value(j)
		}
	}
	return v
}

// Status returns the status of the last solve.
func (s *Solver) Status() Status { return s.status }

// Bound returns the current bounds of structural variable j.
func (s *Solver) Bound(j int) (lo, hi float64) { return s.lo[j], s.hi[j] }

// SetBound changes the bounds of structural variable j, keeping the
// factorized state consistent so ReOptimize can warm-start.
func (s *Solver) SetBound(j int, lo, hi float64) {
	if j < 0 || j >= s.n {
		panic(fmt.Sprintf("lp: SetBound: bad variable %d", j))
	}
	if lo > hi {
		panic(fmt.Sprintf("lp: SetBound: empty range [%v,%v]", lo, hi))
	}
	s.setBoundAny(j, lo, hi)
}

// SetRowBounds changes the range of row i to [lo, hi], keeping the
// factorized state consistent so ReOptimize can warm-start. Row ranges
// are owned by the logical variables (row i holds a_i·x + g_i = 0 with
// g_i in [-hi, -lo]), which every consumer of row ranges — the dual
// ratio test, Farkas certification — already treats as authoritative, so a range edit needs no tableau rebuild: it is the
// row-side twin of SetBound, the primitive the delta re-solve layer
// uses to morph a solved root into a neighboring instance (rhs edits:
// capacity, scratch memory, α-scaled area).
func (s *Solver) SetRowBounds(i int, lo, hi float64) {
	if i < 0 || i >= s.m {
		panic(fmt.Sprintf("lp: SetRowBounds: bad row %d", i))
	}
	if lo > hi {
		panic(fmt.Sprintf("lp: SetRowBounds: empty range [%v,%v]", lo, hi))
	}
	s.setBoundAny(s.n+i, -hi, -lo)
}

// setBoundAny is the shared bound editor behind SetBound and
// SetRowBounds: j may be structural or logical.
func (s *Solver) setBoundAny(j int, lo, hi float64) {
	s.lo[j], s.hi[j] = lo, hi
	if s.vstat[j] == basic {
		return // beta may now violate; dual simplex repairs it
	}
	old := s.nbVal[j]
	// re-anchor the nonbasic value to a consistent bound
	switch s.vstat[j] {
	case atLower:
		s.nbVal[j] = lo
		if math.IsInf(lo, -1) {
			s.vstat[j], s.nbVal[j] = atFree, 0
		}
	case atUpper:
		s.nbVal[j] = hi
		if math.IsInf(hi, 1) {
			s.vstat[j], s.nbVal[j] = atFree, 0
		}
	case atFree:
		if !math.IsInf(lo, -1) && old < lo {
			s.vstat[j], s.nbVal[j] = atLower, lo
		} else if !math.IsInf(hi, 1) && old > hi {
			s.vstat[j], s.nbVal[j] = atUpper, hi
		}
	}
	// clamp into range
	if s.nbVal[j] < lo {
		s.vstat[j], s.nbVal[j] = atLower, lo
	} else if s.nbVal[j] > hi {
		s.vstat[j], s.nbVal[j] = atUpper, hi
	}
	if delta := s.nbVal[j] - old; delta != 0 {
		s.eng.shiftNonbasic(s, j, delta)
	}
	s.status = StatusUnknown
}

// SetObj changes the objective coefficient of structural variable j,
// updating the reduced costs incrementally so ReOptimize can warm-start
// (primal simplex from a still-primal-feasible basis). The tableau is
// untouched: only c and d move, by the standard identity
// d = c - c_B^T (B^{-1} A).
func (s *Solver) SetObj(j int, c float64) {
	if j < 0 || j >= s.n {
		panic(fmt.Sprintf("lp: SetObj: bad variable %d", j))
	}
	dc := c - s.c[j]
	if dc == 0 {
		return
	}
	s.c[j] = c
	switch {
	case s.vstat[j] != basic:
		s.d[j] += dc
	case !s.revSetObjBasic(j, dc):
		s.reset() // singular stale basis; reset rebuilds d from c
	}
	s.status = StatusUnknown
}

// Dims returns the solver's structural-variable and row counts, fixed
// at NewSolver time.
func (s *Solver) Dims() (vars, rows int) { return s.n, s.m }

// expired reports whether the context was cancelled or its deadline
// passed. The pivot loops poll it before every pivot. A non-blocking
// receive on Done is an atomic load once the channel exists, so the
// parallel workers sharing one context never contend on the lock Err
// takes.
func (s *Solver) expired() bool {
	if s.Ctx == nil {
		return false
	}
	select {
	case <-s.Ctx.Done():
		return true
	default:
		return false
	}
}

func (s *Solver) maxIter() int {
	if s.MaxIter > 0 {
		return s.MaxIter
	}
	it := 200 * (s.m + s.n)
	if it < 20000 {
		it = 20000
	}
	return it
}

// Solve optimizes from a fresh all-logical basis.
func (s *Solver) Solve() Status {
	s.reset()
	return s.optimize()
}

// ReOptimize re-optimizes from the current basis, typically after
// SetBound calls. It is equivalent to Solve but usually far cheaper.
func (s *Solver) ReOptimize() Status {
	return s.optimize()
}

// optimize runs the simplex dispatch, retrying once from a fresh
// factorization when an infeasibility verdict fails Farkas
// certification: a branch-and-bound caller prunes a whole subtree on
// StatusInfeasible, so that verdict must never rest on a drifted
// tableau alone. If even the rebuilt tableau produces an uncertified
// infeasible verdict, it is accepted as a best effort (this matches
// the pre-certification trust level of a cold solve, and keeps e.g.
// near-tolerance pivots from looping the retry).
func (s *Solver) optimize() Status {
	if s.CaptureFarkas {
		s.farkasRay = s.farkasRay[:0]
	}
	if !s.eng.ensure(s) {
		// a Clone/Restore recorded a basis the factorization now rejects
		// as singular (pure-roundoff pathology); restart cold
		s.reset()
	}
	st := s.runSimplex()
	if st == statusSuspect {
		s.reset()
		st = s.runSimplex()
		if st == statusSuspect {
			st = StatusInfeasible
		}
	}
	if s.CaptureFarkas && st != StatusInfeasible {
		// a first-attempt suspect verdict may have captured a ray
		// before the retry concluded differently; it must not leak
		s.farkasRay = s.farkasRay[:0]
	}
	s.status = st
	return st
}

// runSimplex dispatches to primal/dual simplex based on which
// feasibility the current basis retains.
func (s *Solver) runSimplex() Status {
	s.bland = false
	s.degRun = 0
	dualOK := s.dualFeasible()
	primalOK := s.primalFeasible()
	var st Status
	switch {
	case primalOK && dualOK:
		st = StatusOptimal
	case dualOK:
		st = s.eng.dual(s)
	case primalOK:
		st = s.eng.primal(s)
	default:
		st = s.phase1()
		if st == StatusOptimal {
			st = s.eng.primal(s)
		}
	}
	return st
}

func (s *Solver) primalFeasible() bool {
	for i := 0; i < s.m; i++ {
		b := s.basis[i]
		if s.beta[i] < s.lo[b]-feasTol || s.beta[i] > s.hi[b]+feasTol {
			return false
		}
	}
	return true
}

func (s *Solver) dualFeasible() bool {
	for j := 0; j < s.ntot; j++ {
		switch s.vstat[j] {
		case atLower:
			if s.d[j] < -optTol && s.hi[j] != s.lo[j] {
				return false
			}
		case atUpper:
			if s.d[j] > optTol && s.hi[j] != s.lo[j] {
				return false
			}
		case atFree:
			if math.Abs(s.d[j]) > optTol {
				return false
			}
		}
	}
	return true
}

// phase1 finds a primal feasible basis by running the dual simplex with
// a zero objective (any basis is dual feasible for c = 0), then restores
// the true reduced costs.
func (s *Solver) phase1() Status {
	for j := range s.d {
		s.d[j] = 0
	}
	st := s.eng.dual(s)
	s.eng.restoreDuals(s)
	return st
}

// FarkasRay returns a copy of the row multipliers behind the last
// infeasibility verdict, or nil when the last solve did not end
// infeasible or capture was off (see CaptureFarkas). The ray y proves
// infeasibility through w = y^T [A | I]: interval-evaluating
// sum_j w_j z_j over the bound box yields a range excluding 0. Rays
// that failed the solver's own float-tolerance certification are still
// returned — exact replay downstream is the stronger judge of whether
// they prove anything.
func (s *Solver) FarkasRay() []float64 {
	if len(s.farkasRay) == 0 {
		return nil
	}
	return append([]float64(nil), s.farkasRay...)
}

// Duals returns a copy of all row dual values (shadow prices) at the
// current basis: y_i is the rate of change of the objective per unit
// increase of row i's binding bound.
func (s *Solver) Duals() []float64 {
	y := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		// the logical variable of row i has cost 0 and column e_i, so
		// its reduced cost is -y_i
		y[i] = -s.d[s.n+i]
	}
	return y
}

// BasisRows returns a copy of the current basis: element r is the
// variable (structural j < n, logical n+i for row i) basic in row r.
func (s *Solver) BasisRows() []int {
	return append([]int(nil), s.basis...)
}

// VarPositions returns the position of every variable in the current
// basis partition, in the (structural ++ logical) ordering: 0 basic,
// 1 at lower bound, 2 at upper bound, 3 nonbasic free. The encoding
// matches the exact-certification layer's PosBasic..PosFree.
func (s *Solver) VarPositions() []int8 {
	out := make([]int8, s.ntot)
	for j, st := range s.vstat {
		out[j] = int8(st)
	}
	return out
}
