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
	// Refactorizations counts rebuilds of the tableau from the original
	// row data (initial factorization, Solve resets, and the
	// certification-failure retries of optimize).
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
	// Revised-engine counters; all stay zero on the dense engine.
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

	c      []float64     // costs, logical costs are 0
	lo, hi []float64     // current bounds, logical bounds encode row ranges
	tab    []float64     // dense engine: m x ntot tableau, row-major B^{-1}A; nil on revised
	rev    *revisedState // revised engine: sparse columns + LU basis; nil on dense
	beta   []float64     // values of basic variables per row
	basis  []int         // variable basic in each row
	inRow  []int         // row of a basic variable, -1 if nonbasic
	vstat  []varStatus
	nbVal  []float64 // value of nonbasic variables
	d      []float64 // reduced costs

	origRows []row     // for rebuilds
	nzbuf    []int32   // scratch: pivot-row nonzero support
	fbuf     []float64 // scratch: Farkas certificate aggregation

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
	// Deadline, when non-zero, aborts a Solve/ReOptimize with
	// StatusIterLimit once the wall clock passes it. Checked every few
	// hundred pivots, so overshoot is bounded.
	Deadline time.Time
	// Ctx, when non-nil, is polled alongside Deadline in the pivot
	// loops: a cancelled context aborts the current Solve/ReOptimize
	// with StatusIterLimit within a bounded number of pivots. This is
	// the cooperative-cancellation hook the MILP layer (and through it
	// the solve service) relies on.
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

// NewSolver builds a solver for p with the engine chosen per problem
// (ChooseEngine). The problem must have at least one variable. Row data
// is copied; the solver is independent of later changes to p.
func NewSolver(p *Problem) (*Solver, error) {
	return NewSolverEngine(p, EngineAuto)
}

// NewSolverEngine builds a solver for p backed by a specific simplex
// engine; EngineAuto applies the ChooseEngine heuristic. Both engines
// honor every Solver contract — the choice trades pivot cost
// (dense O(m·n) elimination vs sparse factor solves) only.
func NewSolverEngine(p *Problem, e Engine) (*Solver, error) {
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
	s.origRows = make([]row, m)
	copy(s.origRows, p.rows)
	for i := 0; i < m; i++ {
		// logical variable i: a_i·x + g_i = 0 with g_i in [-Hi, -Lo]
		s.lo[n+i] = -p.rows[i].hi
		s.hi[n+i] = -p.rows[i].lo
	}
	for j := 0; j < s.ntot; j++ {
		if s.lo[j] > s.hi[j] {
			return nil, fmt.Errorf("lp: variable %d has empty bound range", j)
		}
	}
	if e == EngineAuto {
		nnz := 0
		for i := range s.origRows {
			nnz += len(s.origRows[i].idx)
		}
		e = ChooseEngine(n, m, nnz)
	}
	if e == EngineRevised {
		s.rev = newRevisedState(n, m, buildCSC(n, s.origRows))
	} else {
		s.tab = make([]float64, m*s.ntot)
	}
	s.reset()
	return s, nil
}

// reset restores the all-logical basis with nonbasic structural
// variables at cost-favourable bounds.
func (s *Solver) reset() {
	if s.rev != nil {
		s.revReset()
		return
	}
	var t0 time.Time
	if s.Prof != nil {
		t0 = time.Now()
	}
	s.Counters.Refactorizations++
	for i := range s.tab {
		s.tab[i] = 0
	}
	for i := 0; i < s.m; i++ {
		r := s.origRows[i]
		trow := s.tab[i*s.ntot : (i+1)*s.ntot]
		for k, j := range r.idx {
			trow[j] = r.val[k]
		}
		trow[s.n+i] = 1
		s.basis[i] = s.n + i
		s.inRow[s.n+i] = i
		s.vstat[s.n+i] = basic
	}
	for j := 0; j < s.n; j++ {
		s.inRow[j] = -1
		s.setNonbasicStart(j)
	}
	s.recomputeBeta()
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

// recomputeBeta recomputes all basic values from nonbasic values.
func (s *Solver) recomputeBeta() {
	for i := 0; i < s.m; i++ {
		trow := s.tab[i*s.ntot : (i+1)*s.ntot]
		v := 0.0
		for j := 0; j < s.ntot; j++ {
			if s.vstat[j] != basic && s.nbVal[j] != 0 && trow[j] != 0 {
				v += trow[j] * s.nbVal[j]
			}
		}
		s.beta[i] = -v
	}
}

// value returns the current value of variable j.
func (s *Solver) value(j int) float64 {
	if s.vstat[j] == basic {
		return s.beta[s.inRow[j]]
	}
	return s.nbVal[j]
}

// X returns the current value of structural variable j.
func (s *Solver) X(j int) float64 { return s.value(j) }

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
// ratio test, Farkas certification, Residual — already treats as
// authoritative, so a range edit needs no tableau rebuild: it is the
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
		s.shiftNonbasic(j, delta)
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
	if s.vstat[j] != basic {
		s.d[j] += dc
		s.status = StatusUnknown
		return
	}
	// j basic in row r: every reduced cost shifts by -dc * tab[r][·];
	// d[j] itself nets to zero (+dc from c, -dc from tab[r][j] = 1), and
	// other basic columns keep their zero since tab[r][basic k≠j] = 0.
	if s.rev != nil {
		if !s.revSetObjBasic(j, dc) {
			s.reset() // singular stale basis; reset rebuilds d from c
		}
		s.status = StatusUnknown
		return
	}
	trow := s.tab[s.inRow[j]*s.ntot : (s.inRow[j]+1)*s.ntot]
	for k := 0; k < s.ntot; k++ {
		if trow[k] != 0 {
			s.d[k] -= dc * trow[k]
		}
	}
	// basic reduced costs are zero by definition; pin them rather than
	// trust the drifted tableau entries of basic columns
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
	s.status = StatusUnknown
}

// Obj returns the current objective coefficient of structural variable
// j as owned by the solver (NewSolver copies, SetObj edits).
func (s *Solver) Obj(j int) float64 {
	if j < 0 || j >= s.n {
		panic(fmt.Sprintf("lp: Obj: bad variable %d", j))
	}
	return s.c[j]
}

// RowBounds returns the current range of row i as owned by the solver.
func (s *Solver) RowBounds(i int) (lo, hi float64) {
	if i < 0 || i >= s.m {
		panic(fmt.Sprintf("lp: RowBounds: bad row %d", i))
	}
	return -s.hi[s.n+i], -s.lo[s.n+i]
}

// Dims returns the solver's structural-variable and row counts, fixed
// at NewSolver time.
func (s *Solver) Dims() (vars, rows int) { return s.n, s.m }

// shiftNonbasic adjusts basic values after nonbasic variable j moved by
// delta.
func (s *Solver) shiftNonbasic(j int, delta float64) {
	if s.rev != nil {
		s.revShiftNonbasic(j, delta)
		return
	}
	for i := 0; i < s.m; i++ {
		if a := s.tab[i*s.ntot+j]; a != 0 {
			s.beta[i] -= a * delta
		}
	}
}

// expired reports whether the deadline has passed or the context was
// cancelled; polled cheaply every 128 pivots so cancellation latency
// stays bounded by a short pivot run.
func (s *Solver) expired(iter int) bool {
	if iter%128 != 127 {
		return false
	}
	if !s.Deadline.IsZero() && time.Now().After(s.Deadline) {
		return true
	}
	return s.Ctx != nil && s.Ctx.Err() != nil
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
	if s.rev != nil && !s.revEnsure() {
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
		st = s.dualLoop()
	case primalOK:
		st = s.primalLoop()
	default:
		st = s.phase1()
		if st == StatusOptimal {
			st = s.primalLoop()
		}
	}
	return st
}

// primalLoop and dualLoop dispatch a pivoting run to the engine backing
// this solver.
func (s *Solver) primalLoop() Status {
	if s.rev != nil {
		return s.revPrimalSimplex()
	}
	return s.primalSimplex()
}

func (s *Solver) dualLoop() Status {
	if s.rev != nil {
		return s.revDualSimplex()
	}
	return s.dualSimplex()
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
	st := s.dualLoop()
	if s.rev != nil {
		s.revRestoreDuals()
		return st
	}
	// restore d = c - c_B^T (B^{-1} A)
	copy(s.d, s.c)
	for i := 0; i < s.m; i++ {
		cb := s.c[s.basis[i]]
		if cb == 0 {
			continue
		}
		trow := s.tab[i*s.ntot : (i+1)*s.ntot]
		for j := 0; j < s.ntot; j++ {
			if trow[j] != 0 {
				s.d[j] -= cb * trow[j]
			}
		}
	}
	for i := 0; i < s.m; i++ {
		s.d[s.basis[i]] = 0
	}
	return st
}

// ReducedCost returns the current reduced cost of structural variable
// j (meaningful after an optimal solve: nonnegative for variables at
// lower bound, nonpositive at upper bound, ~0 for basic ones).
func (s *Solver) ReducedCost(j int) float64 {
	if j < 0 || j >= s.n {
		panic(fmt.Sprintf("lp: ReducedCost: bad variable %d", j))
	}
	return s.d[j]
}

// Dual returns the dual value (shadow price) of row i at the current
// basis: the rate of change of the objective per unit increase of the
// row's binding bound. Derived from the reduced cost of the row's
// logical variable.
func (s *Solver) Dual(i int) float64 {
	if i < 0 || i >= s.m {
		panic(fmt.Sprintf("lp: Dual: bad row %d", i))
	}
	// the logical variable of row i has cost 0 and column e_i, so its
	// reduced cost is -y_i
	return -s.d[s.n+i]
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

// Duals returns a copy of all row dual values at the current basis
// (see Dual).
func (s *Solver) Duals() []float64 {
	y := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
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

// Residual returns the maximum violation of the original row equations
// by the solver's current solution — a direct measure of the numerical
// drift accumulated by incremental tableau updates. A healthy solve
// stays within a few orders of magnitude of machine epsilon times the
// problem's coefficient magnitude.
func (s *Solver) Residual() float64 {
	worst := 0.0
	for i := 0; i < s.m; i++ {
		r := s.origRows[i]
		v := 0.0
		for k, j := range r.idx {
			v += r.val[k] * s.value(j)
		}
		// row value must lie in [lo, hi]
		lo, hi := -s.hi[s.n+i], -s.lo[s.n+i]
		if v < lo && lo-v > worst {
			worst = lo - v
		}
		if v > hi && v-hi > worst {
			worst = v - hi
		}
	}
	return worst
}
