// Package milp implements a branch-and-bound solver for mixed 0-1
// linear programs over the internal/lp simplex engine.
//
// The solver follows the scheme of Kaul & Vemuri (DATE 1998, Section
// 8): depth-first search over LP relaxations, warm-started by bound
// changes (dual simplex on dives, primal clean-up on backtracks), with
// a pluggable branching rule. The paper's contribution — branching on
// fractional y_tp variables in topological priority order with the
// 1-branch explored first, then on u_pk — is provided by the core
// package as a PriorityBrancher; this package also ships naive rules
// used as ablation baselines.
package milp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/exact"
	"repro/internal/lp"
	"repro/internal/trace"
)

// Status is the outcome of a MILP solve.
//
// Incumbent contract: every status except StatusInfeasible may carry
// an incumbent. When the search is stopped early — StatusFeasible,
// StatusLimit, StatusNodeLimit or StatusCancelled — Result.X still
// holds the best integer-feasible solution found so far (nil when none
// was found) and Result.BestBound the proved lower bound, so callers
// can always salvage partial work from an interrupted solve.
type Status int

const (
	// StatusOptimal means the incumbent is proved optimal.
	StatusOptimal Status = iota
	// StatusInfeasible means no integer-feasible solution exists.
	StatusInfeasible
	// StatusFeasible means an incumbent exists but the time limit (or
	// an LP iteration cap) stopped the proof of optimality.
	StatusFeasible
	// StatusLimit means the time limit (or an LP iteration cap)
	// stopped the search before any incumbent was found.
	StatusLimit
	// StatusNodeLimit means Options.MaxNodes stopped the search. The
	// incumbent found so far, if any, is still returned in Result.X.
	StatusNodeLimit
	// StatusCancelled means the caller's context was cancelled. The
	// incumbent found so far, if any, is still returned in Result.X.
	StatusCancelled
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusFeasible:
		return "feasible"
	case StatusNodeLimit:
		return "node-limit"
	case StatusCancelled:
		return "cancelled"
	default:
		return "limit"
	}
}

// Stopped reports whether a limit or cancellation cut the search short
// before it could prove optimality or infeasibility.
func (s Status) Stopped() bool {
	return s == StatusFeasible || s == StatusLimit || s == StatusNodeLimit || s == StatusCancelled
}

// intTol is the integrality tolerance.
const intTol = 1e-6

// SearchMode selects the scheduler of a parallel solve.
type SearchMode int

const (
	// ModeAuto lets the solver pick: the root-size gate (see
	// ParallelThreshold) decides between the serial search and the
	// work-stealing pool.
	ModeAuto SearchMode = iota
	// ModeSerial forces the serial depth-first search regardless of
	// Parallelism.
	ModeSerial
	// ModeSteal runs the work-stealing node pool: per-worker deques,
	// adaptive second-child donation, best-bound victim selection.
	ModeSteal
	// ModePortfolio races Parallelism complete searches with diverse
	// branching strategies over the same tree, sharing incumbents; the
	// first to exhaust its pruned tree proves the verdict.
	ModePortfolio
)

func (m SearchMode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeSteal:
		return "steal"
	case ModePortfolio:
		return "portfolio"
	default:
		return "auto"
	}
}

// ParseSearchMode parses a search-mode name; "" means auto.
func ParseSearchMode(s string) (SearchMode, error) {
	switch s {
	case "", "auto":
		return ModeAuto, nil
	case "serial":
		return ModeSerial, nil
	case "steal":
		return ModeSteal, nil
	case "portfolio":
		return ModePortfolio, nil
	}
	return 0, fmt.Errorf("milp: unknown search mode %q (want auto, serial, steal or portfolio)", s)
}

// MarshalText encodes the search mode by name.
func (m SearchMode) MarshalText() ([]byte, error) {
	return []byte(m.String()), nil
}

// UnmarshalText decodes a search-mode name.
func (m *SearchMode) UnmarshalText(b []byte) error {
	v, err := ParseSearchMode(string(b))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Brancher selects the variable to branch on. x is the structural LP
// solution of the current node and bound reports the node's current
// variable bounds. It returns the column to branch on and whether the
// 1-branch is explored first; col < 0 delegates to the default
// most-fractional rule over the declared integer variables.
type Brancher interface {
	Select(x []float64, bound func(col int) (lo, hi float64)) (col int, oneFirst bool)
}

// BrancherFunc adapts a function to the Brancher interface.
type BrancherFunc func(x []float64, bound func(col int) (lo, hi float64)) (int, bool)

// Select implements Brancher.
func (f BrancherFunc) Select(x []float64, bound func(col int) (lo, hi float64)) (int, bool) {
	return f(x, bound)
}

// Options configure a solve.
type Options struct {
	// IntVars lists the columns that must be integral (0-1 variables;
	// general integers are not supported). Must be non-empty.
	IntVars []int
	// Brancher selects branching variables; nil uses most-fractional.
	Brancher Brancher
	// ObjIntegral declares that every integer-feasible solution has an
	// integral objective, enabling ceil-rounding of LP bounds.
	ObjIntegral bool
	// InitialUpper primes the incumbent objective with the objective
	// of a known feasible solution, e.g. from a heuristic (+Inf when
	// 0). Subtrees that cannot beat it are pruned; if nothing beats
	// it, the result is StatusInfeasible with a nil X, meaning "no
	// solution strictly better than InitialUpper exists".
	InitialUpper float64
	// MaxNodes limits explored nodes; 0 means no limit.
	MaxNodes int
	// TimeLimit bounds wall-clock time; 0 means no limit.
	TimeLimit time.Duration
	// Complete, when set, is called after the Brancher reports no
	// fractional variable among the columns it watches. It derives the
	// values of auxiliary integer variables implied by the decision
	// variables and returns the completed solution (or nil to decline).
	// A feasible completed point becomes the incumbent immediately,
	// avoiding branching on implied variables. The solver verifies
	// feasibility and integrality of the returned point independently.
	Complete func(x []float64) []float64
	// Probe, when set, is called at every node before branching with
	// the LP solution and an accessor for the node's variable bounds.
	// It may return a candidate solution xc (feasible for the ORIGINAL
	// problem — the solver validates feasibility and integrality but
	// not the node's branching bounds, since any global feasible point
	// is a valid incumbent), and/or exhausted=true asserting that the
	// node's subtree provably contains no feasible point. Returning
	// exhausted without such a proof makes the search unsound.
	// Under Parallelism > 1 the Probe is invoked concurrently from
	// every worker and must be safe for that.
	Probe func(x []float64, bound func(col int) (lo, hi float64)) (xc []float64, exhausted bool)
	// Parallelism sets the number of branch-and-bound workers. 0 or 1
	// keeps today's serial depth-first search, pivot for pivot. Higher
	// values run that many goroutines — a work-stealing node pool, or
	// racing complete searches in portfolio mode (see Mode) — each
	// owning a clone of the LP solver and pruning against a shared
	// atomic incumbent. The returned Objective, X feasibility and
	// Status are identical to the serial solve — only Nodes,
	// LPIterations and the traversal order may differ. Stateful
	// Branchers must implement Forker to get a per-worker instance;
	// Probe and Complete hooks must be concurrency-safe.
	Parallelism int
	// Trace receives structured search events: the root bound, sampled
	// node progress (every Trace.SampleEvery() nodes), incumbent
	// installs, best-bound moves, worker subproblem pickups and the
	// terminal status with LP engine counters. Nil disables tracing at
	// zero cost — with Trace, Record and BlackBox all nil the hot node
	// loop tests one flag and builds no event.
	Trace *trace.Tracer
	// Record, when set, captures the full search lineage into the
	// flight recorder: every explored node with its id/parent, the
	// branching edge (column and direction), LP status, local objective,
	// global bound and incumbent at entry, and per-node pivot/wall-time
	// cost, plus incumbent installs and a terminal footer — for both
	// serial and parallel solves. Recording implies phase profiling:
	// when Profile is nil a private profile is created and attached to
	// the recording footer. Nil disables recording at zero cost, like
	// Trace.
	Record *trace.Recorder
	// Profile, when set, receives per-phase wall-time attribution: the
	// node-level phases of this package (node-lp, probe, complete,
	// branch-select, verify) and, through lp.Solver.Prof, the engine's
	// internal phases (pricing, ratio-test, pivot-update, refactorize,
	// farkas). The profile is shared by all parallel workers — its
	// buckets are atomic. Nil keeps every clock read out of the loops.
	Profile *trace.Profile
	// Certify, when set, attaches an exact-arithmetic certificate of
	// the verdict to Result.Certificate (and to the flight recording
	// when Record is on): the incumbent is re-verified in rational
	// arithmetic against the solver's own row data, a root infeasibility
	// replays its Farkas certificate exactly, and the root LP bound is
	// re-proved from the root duals (plus an exact basis certification
	// on small models). See internal/exact for what is certified versus
	// trusted. Off (the default) the solve paths perform no extra work
	// and no allocations.
	Certify bool
	// Warm, when set, is used as the root LP solver instead of a fresh
	// lp.NewSolver(p): the root relaxation is re-optimized from the
	// solver's current basis (dual simplex after bound edits, primal
	// after objective edits) rather than solved cold. The caller owns
	// the contract that the solver REPRESENTS p — same columns and rows,
	// with any bound, row-range or objective edits already applied via
	// SetBound/SetRowBounds/SetObj — because every downstream judgement
	// (node feasibility checks, incumbent validation, exact
	// certification) is rendered against p itself, so a violated
	// contract surfaces as a failed solve, not a wrong answer. The
	// solver is mutated by the search, like a fresh one would be; pass a
	// Clone to keep the original reusable. Dimensions are validated.
	Warm *lp.Solver
	// OnRoot, when set, receives the root LP solver right after the
	// root relaxation solves to optimality and before the search
	// mutates it — the hook the delta re-solve layer uses to capture a
	// reusable root basis (via Clone) with zero extra LP work. Called
	// synchronously; not called when the root is infeasible or hits a
	// limit.
	OnRoot func(*lp.Solver)
	// ParallelThreshold gates Parallelism behind a cheap root-size
	// estimate: when the root tableau has fewer than this many cells
	// (rows × (rows + columns)), or GOMAXPROCS < 2, or the root LP has
	// too few fractional integers to split a meaningful tree, the solve
	// falls back to the serial search — the clone/split overhead hurts
	// small instances more than parallel search helps them. The
	// decision either way is emitted as a "plan" trace event. 0 means
	// DefaultParallelThreshold; negative disables the gate entirely so
	// a parallel request is always honored.
	ParallelThreshold int
	// Mode selects the parallel scheduler. The zero value ModeAuto
	// applies the ParallelThreshold gate and picks work-stealing;
	// ModeSteal and ModePortfolio bypass the gate (an explicit request
	// is honored, like a negative ParallelThreshold); ModeSerial forces
	// the serial search. Ignored when Parallelism <= 1. The resolved
	// mode is reported in Result.Mode and on the "plan" trace event.
	Mode SearchMode
	// RootCuts enables root-node strengthening: cover cuts separated
	// from the row data are appended to a private clone of the model and
	// the root is re-optimized before the search. The caller's Problem
	// is never mutated. Ignored under Warm (the warm solver's basis
	// describes the un-augmented model).
	RootCuts bool
	// Dive enables the root diving heuristic: one root-to-leaf
	// rounding dive that usually produces an early incumbent, seeding
	// the pruning bound before any worker starts. Ignored under Warm.
	Dive bool
	// Span, when set, is the parent under which the solve opens its
	// stage spans (root-lp, cuts, dive, search with per-worker
	// children, certify), annotated with node/pivot counts and the LP
	// engine counters. Nil disables span tracking at zero cost — the
	// node loop never touches spans, so the off path stays
	// allocation-free like Trace.
	Span *trace.Span
	// BlackBox, when set, receives a keep-last stream of flat per-node
	// events plus incumbent installs, and is flushed automatically on
	// anomalies: a recovered worker panic, a deadline/cancellation
	// stop, or a failed certification. The service keeps one per job
	// (always on); nil disables it behind a single pointer compare.
	BlackBox *trace.BlackBox
	// Status, when set, is attached to the running search so callers
	// can poll live progress (nodes, incumbent, bound, gap, open
	// subproblems, steals, per-worker phases) from the search's atomic
	// mirrors without perturbing it. Nil is the off state.
	Status *SearchStatus
	// PanicNode, when positive, makes the worker that explores the
	// node with this global index panic — a fault-injection hook for
	// exercising the panic-recovery and black-box flush paths in
	// tests. The off check is two compares per node.
	PanicNode int64
	// NodeDelay adds a sleep to every explored node — a test hook that
	// keeps small instances in flight long enough for live
	// introspection assertions. Zero (off) costs one compare per node.
	NodeDelay time.Duration
}

// Result reports a solve.
type Result struct {
	Status Status
	// X is the incumbent solution: the best integer-feasible point
	// found, even when a limit or cancellation stopped the search (see
	// the Status incumbent contract). Nil when none was found.
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes whose LP was solved.
	Nodes int
	// LPIterations is the total simplex pivot count (LP
	// re-optimizations across all nodes).
	LPIterations int
	// Runtime is the wall-clock duration of the solve.
	Runtime time.Duration
	// BestBound is the proved lower bound on the optimum.
	BestBound float64
	// Certificate is the exact-arithmetic certificate of the verdict,
	// present when Options.Certify was set and the outcome was
	// certifiable (limit statuses without an incumbent carry none). It
	// has already been checked; inspect Certificate.Valid / Err().
	Certificate *exact.Certificate
	// Mode is the scheduler that actually ran: the resolution of
	// Options.Mode (never ModeAuto on a completed solve).
	Mode SearchMode
	// Steals counts subproblems taken from another worker's deque
	// (work-stealing mode only).
	Steals int64
	// CutsApplied counts the root-strengthening cuts appended to the
	// search's model (0 when RootCuts is off or nothing violated).
	CutsApplied int
	// FirstIncumbentNodes is the global node count when the first
	// incumbent was installed, and FirstIncumbent the elapsed time; both
	// zero when the search found none (a primed InitialUpper does not
	// count, and an incumbent from the root dive reports 0 nodes).
	FirstIncumbentNodes int64
	FirstIncumbent      time.Duration
	// TimeToProof is the wall-clock time to a *proved* verdict — equal
	// to Runtime when the status is optimal or infeasible, 0 when a
	// limit stopped the search first.
	TimeToProof time.Duration
}

// stopReason records why the search stopped early, so the final status
// can distinguish cancellation from node and time limits.
type stopReason int

const (
	reasonNone  stopReason = iota
	reasonTime             // deadline or LP iteration cap
	reasonNodes            // Options.MaxNodes
	reasonCtx              // context cancelled by the caller
)

// solver is the per-goroutine search state: the serial solve uses one,
// a parallel solve uses one per worker plus the root one that solves
// the root LP, cuts and dive before the workers start.
// Everything cross-worker lives in the shared struct.
type solver struct {
	lps      *lp.Solver
	prob     *lp.Problem
	opt      Options
	ctx      context.Context
	isInt    []bool
	sh       *shared
	brancher Brancher
	boundObs BoundObserver
	local    int // nodes explored by this worker (drives ctx-poll cadence)
	reason   stopReason
	worker   int // 0 for the serial search, 1-based for parallel workers

	// curNode is the global index (the recorder id) of the node this
	// goroutine is currently exploring, so incumbent installs from
	// candidate hooks and recovered panics are attributed to the right
	// node. span is the search-stage span under which parallel modes
	// open their per-worker children (nil when off).
	curNode int64
	span    *trace.Span

	// work-stealing state (see steal.go): pool is non-nil on the
	// workers of a steal-mode solve, wslot is the worker's 0-based pool
	// slot, and path tracks the branching fixes from the root to the
	// current node so donated subproblems carry their full prefix.
	pool  *stealPool
	wslot int
	path  []fix
}

// nodeMeta carries the recorder-facing identity of a node into
// branch(): the lineage edge that created it (parent id, branching
// column and direction) and the cost of the LP re-optimization that
// entered it (pivots, wall nanoseconds). Zero-valued except col=-1 at
// the root; cheap to build even when recording is off.
type nodeMeta struct {
	parent int64
	col    int32
	dir    int8
	pivots int64
	ns     int64
}

// Solve runs branch and bound on p without external cancellation.
func Solve(p *lp.Problem, opt Options) (*Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// SolveContext runs branch and bound on p under ctx. Cancelling ctx
// cooperatively stops the search within a bounded number of pivots and
// yields StatusCancelled; Options.TimeLimit is applied as a context
// deadline internally, so an expired deadline (from either source)
// yields the time-limit statuses. In both cases the incumbent found so
// far is still returned (see Status).
func SolveContext(ctx context.Context, p *lp.Problem, opt Options) (*Result, error) {
	if len(opt.IntVars) == 0 {
		return nil, fmt.Errorf("milp: no integer variables declared")
	}
	lps := opt.Warm
	if lps != nil {
		if n, m := lps.Dims(); n != p.NumVars() || m != p.NumRows() {
			return nil, fmt.Errorf("milp: warm solver is %dx%d, problem is %dx%d",
				m, n, p.NumRows(), p.NumVars())
		}
	} else {
		var err error
		if lps, err = lp.NewSolver(p); err != nil {
			return nil, err
		}
	}
	// An infeasible root must keep its Farkas multipliers for the exact
	// replay; turned back off after the root solve so tree nodes pay
	// nothing (node infeasibility is pruning, not a shipped verdict).
	lps.CaptureFarkas = opt.Certify
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if opt.TimeLimit > 0 {
		// the time limit is a context deadline internally, so LP
		// solves, the node loop and callers all observe one signal
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, start.Add(opt.TimeLimit))
		defer cancel()
	}
	s := &solver{lps: lps, prob: p, opt: opt, ctx: ctx, isInt: make([]bool, p.NumVars())}
	for _, j := range opt.IntVars {
		if j < 0 || j >= p.NumVars() {
			return nil, fmt.Errorf("milp: integer variable %d out of range", j)
		}
		lo, hi := p.Bounds(j)
		if lo < -intTol || hi > 1+intTol {
			return nil, fmt.Errorf("milp: integer variable %d (%s) must be 0-1, bounds [%v,%v]", j, p.VarName(j), lo, hi)
		}
		s.isInt[j] = true
	}
	upper := math.Inf(1)
	if opt.InitialUpper != 0 && !math.IsInf(opt.InitialUpper, 1) {
		upper = opt.InitialUpper
	}
	s.sh = newShared(upper, &opt, start)
	o := &s.sh.obs
	s.brancher = opt.Brancher
	s.boundObs = boundObserverOf(opt.Brancher)
	lps.Ctx = ctx // bound individual LP solves too
	lps.Prof = o.prof
	if opt.Status != nil {
		// Attach the live handle before any LP work so pollers see the
		// solve from its first node; re-attached with the resolved mode
		// once the plan is decided, marked finished on every return.
		nw := opt.Parallelism
		if nw < 1 {
			nw = 1
		}
		s.sh.wphase = make([]atomic.Int32, nw+1)
		opt.Status.attach(&liveSearch{sh: s.sh, mode: opt.Mode, workers: nw, start: start})
		defer opt.Status.finish()
	}

	if err := ctx.Err(); err != nil {
		// cancelled before any work: report it without touching the
		// problem (a dead context must not race root-LP infeasibility)
		res := &Result{BestBound: math.Inf(-1), Status: StatusLimit}
		if context.Cause(ctx) == context.Canceled {
			res.Status = StatusCancelled
		}
		return res, nil
	}

	t0 := o.clock()
	rootSpan := opt.Span.Child("root-lp") // nil-safe: nil when spans are off
	var rootStatus lp.Status
	if opt.Warm != nil {
		rootStatus = lps.ReOptimize()
	} else {
		rootStatus = lps.Solve()
	}
	rootMeta := nodeMeta{col: -1, pivots: int64(lps.Iterations), ns: o.lap(trace.PhaseNodeLP, t0)}
	rootSpan.SetStr("status", rootStatus.String())
	rootSpan.SetNum("pivots", float64(lps.Iterations))
	lps.Counters.AnnotateSpan(rootSpan)
	rootSpan.End()
	res := &Result{BestBound: math.Inf(-1)}
	switch rootStatus {
	case lp.StatusUnbounded:
		return nil, fmt.Errorf("milp: LP relaxation is unbounded")
	case lp.StatusInfeasible, lp.StatusIterLimit:
		// The root LP decides the solve: it is infeasible, or
		// cancellation, a deadline or an iteration cap stopped it (an
		// inconclusive run, not an error).
		o.node(trace.NodeRec{ID: 1, Col: -1, LP: rootStatus.String(),
			Pivots: rootMeta.pivots, NS: rootMeta.ns})
		res.Status = StatusInfeasible
		if rootStatus == lp.StatusIterLimit {
			res.Status = StatusLimit
			reason := "deadline"
			if context.Cause(ctx) == context.Canceled {
				res.Status, reason = StatusCancelled, "cancelled"
			}
			o.bb.Anomaly(trace.BBEvent{Kind: trace.BBDeadline, Msg: "root LP stopped: " + reason}, reason)
		} else if opt.Certify {
			s.attachCertificate(p, res, rootWitness{farkas: lps.FarkasRay()})
		}
		res.Runtime = time.Since(start)
		res.LPIterations = lps.Iterations
		o.finish(res, lps, 1)
		return res, nil
	}
	// The OnRoot hook fires before any strengthening: the delta re-solve
	// layer captures a basis for the UN-augmented model (its warm
	// re-solves replay amendments against the original row set).
	if opt.OnRoot != nil {
		opt.OnRoot(lps)
	}
	if opt.RootCuts && opt.Warm == nil {
		cutSpan := opt.Span.Child("cuts")
		n, err := s.applyRootCuts()
		if err != nil {
			cutSpan.End()
			return nil, err
		}
		res.CutsApplied = n
		cutSpan.SetNum("applied", float64(n))
		cutSpan.End()
		lps = s.lps // a discarded cut round may have rebuilt the solver
	}
	// Root witnesses for certification must be taken now — after the
	// cuts, so the duals and basis describe the (possibly augmented)
	// root the search actually runs on: the search below re-optimizes
	// lps in place (serial mode), so its terminal duals and basis
	// describe the last node visited, not the root.
	var rw rootWitness
	if opt.Certify {
		rw.duals = lps.Duals()
		// The exact basis factorization demands exactly-signed reduced
		// costs; a cut-augmented basis reached by a warm append carries
		// ~1e-15 dual noise that fails that bar, so cuts fall back to
		// the safe dual-bound certificate alone.
		if res.CutsApplied == 0 && s.prob.NumRows() <= exact.BasisCertLimit {
			rw.basis = lps.BasisRows()
			rw.varPos = lps.VarPositions()
		}
		lps.CaptureFarkas = false // root is done; nodes don't capture
	}
	res.BestBound = lps.Objective()
	s.sh.raiseBound(res.BestBound)
	o.tr.Emit(trace.Event{Kind: trace.KindRoot, Bound: res.BestBound, Pivots: int64(lps.Iterations)})
	if opt.Dive && opt.Warm == nil {
		diveSpan := opt.Span.Child("dive")
		s.dive()
		if inc := s.sh.incumbent(); !math.IsInf(inc, 0) {
			diveSpan.SetNum("incumbent", inc)
		}
		diveSpan.End()
	}
	mode, why := s.planMode()
	res.Mode = mode
	if opt.Status != nil {
		nw := 1
		if mode == ModeSteal || mode == ModePortfolio {
			nw = opt.Parallelism
		}
		opt.Status.attach(&liveSearch{sh: s.sh, mode: mode, workers: nw, start: start})
	}
	if opt.Parallelism > 1 && o.tr != nil {
		e := trace.Event{Kind: trace.KindPlan, Bound: res.BestBound, Worker: opt.Parallelism}
		if why != "" {
			e.Msg = "serial fallback: " + why
		} else {
			e.Msg = fmt.Sprintf("mode=%s workers=%d cuts=%d", mode, opt.Parallelism, res.CutsApplied)
		}
		o.tr.Emit(e)
	}
	searchSpan := opt.Span.Child("search")
	searchSpan.SetStr("mode", mode.String())
	s.span = searchSpan
	switch mode {
	case ModeSteal:
		s.solveSteal(res, rootMeta)
	case ModePortfolio:
		s.solvePortfolio(rootMeta)
	default:
		s.sh.setPhase(0, wpSearch)
		s.guard(func() { s.branch(lp.StatusOptimal, 0, rootMeta) })
		s.sh.setPhase(0, wpDone)
	}
	searchSpan.SetNum("nodes", float64(s.sh.nodes.Load()))
	searchSpan.SetNum("pivots", float64(lps.Iterations))
	searchSpan.SetNum("steals", float64(res.Steals))
	lps.Counters.AnnotateSpan(searchSpan)
	searchSpan.End()
	if msg, node, ok := s.sh.panicked(); ok {
		// The black box was flushed at recovery time and stays with the
		// caller (the service serves it on the failed job); the solve
		// itself is not trustworthy past the crash, so it is an error,
		// never a Result.
		return nil, fmt.Errorf("milp: worker panic at node %d: %s", node, msg)
	}

	incObj, incX := s.sh.best()
	res.Nodes = int(s.sh.nodes.Load())
	res.LPIterations = lps.Iterations
	res.Runtime = time.Since(start)
	switch {
	case s.reason == reasonCtx:
		res.Status = StatusCancelled
	case s.reason == reasonNodes:
		res.Status = StatusNodeLimit
	case incX == nil && s.reason != reasonNone:
		res.Status = StatusLimit
	case incX == nil:
		res.Status = StatusInfeasible
	case s.reason != reasonNone:
		res.Status = StatusFeasible
	default:
		res.Status = StatusOptimal
	}
	if incX != nil {
		res.X = incX
		res.Objective = incObj
		if s.reason == reasonNone {
			res.BestBound = incObj
		} else if res.BestBound > incObj {
			res.BestBound = incObj
		}
	}
	if s.sh.firstInc.Load() {
		res.FirstIncumbentNodes = s.sh.firstIncNode.Load()
		res.FirstIncumbent = time.Duration(s.sh.firstIncNS.Load())
	}
	// A deadline or cancellation is an anomaly worth a post-mortem:
	// freeze the black box so "what was the search doing when it was
	// cut off" stays answerable after the job is gone.
	if o.bb != nil && (s.reason == reasonTime || s.reason == reasonCtx) {
		reason := "deadline"
		if s.reason == reasonCtx {
			reason = "cancelled"
		}
		o.bb.Anomaly(trace.BBEvent{Kind: trace.BBDeadline, Node: int64(res.Nodes),
			Incumbent: incObj, Bound: res.BestBound, Msg: "search stopped: " + reason}, reason)
	}
	if res.Status == StatusOptimal || res.Status == StatusInfeasible {
		res.TimeToProof = res.Runtime
	}
	if opt.Certify {
		// certify against the (possibly cut-augmented) model the search
		// ran on — s.prob, not the caller's p
		certSpan := opt.Span.Child("certify")
		s.attachCertificate(s.prob, res, rw)
		if c := res.Certificate; c != nil {
			certSpan.SetStr("kind", c.Kind)
			if !c.Valid {
				certSpan.SetStr("invalid", "true")
			}
		}
		certSpan.End()
	}
	o.finish(res, lps, int64(res.Nodes))
	return res, nil
}

// bound returns the pruning bound of the current LP objective,
// ceil-rounded when the objective is known integral.
func (s *solver) bound(z float64) float64 {
	if s.opt.ObjIntegral {
		return math.Ceil(z - 1e-6)
	}
	return z
}

// branch explores the current node (whose LP relaxation has already
// been solved with the given status) and its subtree, restoring all
// bound changes before returning. depth is the number of branching
// fixes between the root and this node; the work-stealing pool donates
// subproblems only above donateDepth. meta identifies the
// node to the flight recorder (lineage edge and entry-LP cost).
func (s *solver) branch(st lp.Status, depth int, meta nodeMeta) {
	s.local++
	total := s.sh.nodes.Add(1)
	s.curNode = total
	o := &s.sh.obs
	if o.nodes {
		n := trace.NodeRec{
			ID: total, Parent: meta.parent, Worker: int32(s.worker),
			Depth: int32(depth), Col: meta.col, Dir: meta.dir,
			LP: st.String(), Pivots: meta.pivots, NS: meta.ns,
		}
		if b := s.sh.displayBound(); !math.IsInf(b, 0) {
			n.Best = b
		}
		if inc := s.sh.incumbent(); !math.IsInf(inc, 0) {
			n.Inc, n.HasInc = inc, true
		}
		if st == lp.StatusOptimal {
			n.Obj, n.HasObj = s.lps.Objective(), true
		}
		o.node(n)
	}
	if s.opt.PanicNode > 0 && total == s.opt.PanicNode {
		panic(fmt.Sprintf("injected fault: PanicNode hit at node %d (worker %d, depth %d)",
			total, s.worker, depth))
	}
	if s.opt.NodeDelay > 0 {
		time.Sleep(s.opt.NodeDelay)
	}
	if r := s.limitHit(total); r != reasonNone {
		s.reason = r
		return
	}
	if st == lp.StatusInfeasible {
		return
	}
	if st == lp.StatusIterLimit {
		// treat as unresolved: cannot prune, cannot trust; re-solve
		// from scratch once, then give up on this subtree if it
		// persists (counted as a stop so optimality is not claimed).
		if s.resolveNodeLP() == lp.StatusIterLimit {
			s.reason = reasonTime
			if context.Cause(s.ctx) == context.Canceled {
				s.reason = reasonCtx
			}
			return
		}
		st = s.lps.Status()
		if st == lp.StatusInfeasible {
			return
		}
	}
	z := s.lps.Objective()
	if s.bound(z) >= s.sh.incumbent()-1e-9 {
		return // dominated
	}
	x := s.lps.Solution()
	if s.opt.Probe != nil {
		t0 := o.clock()
		xc, exhausted := s.opt.Probe(x, s.lps.Bound)
		o.lap(trace.PhaseProbe, t0)
		if xc != nil && s.acceptCandidate(xc, z, false) {
			return // candidate matches the node bound: subtree fathomed
		}
		if exhausted {
			return
		}
	}
	col, oneFirst := -1, true
	if s.brancher != nil {
		t0 := o.clock()
		col, oneFirst = s.brancher.Select(x, s.lps.Bound)
		o.lap(trace.PhaseBranchSelect, t0)
	}
	if col < 0 && s.opt.Complete != nil {
		t0 := o.clock()
		xc := s.opt.Complete(x)
		o.lap(trace.PhaseComplete, t0)
		if xc != nil && s.acceptCandidate(xc, z, true) {
			return
		}
	}
	if col < 0 {
		col, oneFirst = s.mostFractional(x)
	}
	if col < 0 {
		// integer feasible: new incumbent. Guard against numerical
		// drift of the incrementally-updated tableau by re-checking
		// the point against the original problem data; on failure,
		// re-solve this node's LP from a fresh basis once and resume
		// (the fresh vertex may be fractional again, so re-branch).
		if err := s.checkFeasible(x, 1e-5); err != nil {
			switch s.resolveNodeLP() {
			case lp.StatusInfeasible:
				return
			case lp.StatusOptimal:
				x = s.lps.Solution()
				z = s.lps.Objective()
				if s.checkFeasible(x, 1e-5) != nil {
					return // still inconsistent: do not trust this node
				}
				if s.bound(z) >= s.sh.incumbent()-1e-9 {
					return
				}
				col, oneFirst = s.mostFractional(x)
			default:
				return
			}
		}
		if col < 0 {
			obj := z
			if s.opt.ObjIntegral {
				obj = math.Round(obj)
			}
			s.sh.install(obj, x, s.worker, s.curNode)
			return
		}
	}
	first, second := 1.0, 0.0
	if !oneFirst {
		first, second = 0.0, 1.0
	}
	// Work-stealing donation: when some worker is hungry, hand the
	// second child to the pool BEFORE descending into the first, so the
	// leftmost dive of a fresh solve peels off a subproblem per level
	// and the pool fills within the first few nodes. The donated
	// subproblem is this node's branching prefix plus the second fix;
	// its bound is this node's LP bound (a valid bound on any child).
	// parent=total makes the taker's pickup re-solve a recorded child
	// of this node.
	donated := false
	if s.pool != nil && depth < donateDepth && s.pool.hungry() {
		lo, hi := s.lps.Bound(col)
		if second >= lo-intTol && second <= hi+intTol {
			fixes := make([]fix, len(s.path)+1)
			copy(fixes, s.path)
			fixes[len(s.path)] = fix{col: col, val: second}
			s.pool.donate(s.wslot, subproblem{fixes: fixes, bound: s.bound(z), parent: total})
			donated = true
		}
	}
	for vi, v := range [2]float64{first, second} {
		if vi == 1 && donated {
			continue // handed to the pool
		}
		lo, hi := s.lps.Bound(col)
		if v < lo-intTol || v > hi+intTol {
			continue // value already excluded on this path
		}
		s.lps.SetBound(col, v, v)
		s.path = append(s.path, fix{col: col, val: v})
		cm := nodeMeta{parent: total, col: int32(col)}
		if v >= 0.5 {
			cm.dir = 1
		}
		t0, piv0 := o.clock(), s.lps.Iterations
		cst := s.lps.ReOptimize()
		cm.ns, cm.pivots = o.lap(trace.PhaseNodeLP, t0), int64(s.lps.Iterations-piv0)
		if s.boundObs != nil && cst == lp.StatusOptimal {
			s.boundObs.Observe(col, v >= 0.5, z, s.lps.Objective())
		}
		s.branch(cst, depth+1, cm)
		s.path = s.path[:len(s.path)-1]
		s.lps.SetBound(col, lo, hi)
		if s.reason != reasonNone {
			return
		}
	}
}

// resolveNodeLP re-solves the current node's LP from a fresh basis
// (drift recovery and iteration-limit retries), attributing the work to
// the node-lp phase.
func (s *solver) resolveNodeLP() lp.Status {
	t0 := s.sh.obs.clock()
	st := s.lps.Solve()
	s.sh.obs.lap(trace.PhaseNodeLP, t0)
	return st
}

// checkFeasible verifies a point against the original problem data,
// attributing the row scan to the verify phase.
func (s *solver) checkFeasible(x []float64, tol float64) error {
	t0 := s.sh.obs.clock()
	err := s.prob.Feasible(x, tol)
	s.sh.obs.lap(trace.PhaseVerify, t0)
	return err
}

// acceptCandidate validates a candidate point and installs it as the
// incumbent when it is integral, feasible and improving. It reports
// whether the subtree is fathomed: the point must be valid AND its
// objective must match the node's LP bound (otherwise a better integer
// point could hide below it and branching must continue). When
// inNode is set the candidate must also respect the node's branching
// bounds (the Complete contract); Probe candidates only need global
// feasibility.
func (s *solver) acceptCandidate(xc []float64, nodeBound float64, inNode bool) bool {
	if len(xc) != len(s.isInt) {
		return false
	}
	for j, isInt := range s.isInt {
		if isInt && isFrac(xc[j]) {
			return false
		}
	}
	if inNode {
		// Feasible checks only the problem's original bounds, so check
		// the solver's current (branching) ones too.
		for j := range xc {
			lo, hi := s.lps.Bound(j)
			if xc[j] < lo-intTol || xc[j] > hi+intTol {
				return false
			}
		}
	}
	if err := s.checkFeasible(xc, 1e-6); err != nil {
		return false
	}
	obj := s.prob.Objective(xc)
	if s.opt.ObjIntegral {
		obj = math.Round(obj)
	}
	s.sh.install(obj, xc, s.worker, s.curNode)
	return obj <= nodeBound+1e-6*(1+math.Abs(nodeBound))
}

// DefaultParallelThreshold is the root-tableau cell count — rows times
// (rows + columns), a cheap proxy for model size — below which a
// parallel request falls back to the serial search when
// Options.ParallelThreshold is 0. Recalibrated for the work-stealing
// scheduler, whose fixed overhead (one LP clone per worker, a mutexed
// pool) is far smaller than the old static split's: instances under
// this size solve in under a millisecond, where even a clone is not
// worth it. The old static-split threshold was 1<<19.
const DefaultParallelThreshold = 1 << 16

// planMode resolves the scheduler for this solve: the serial search
// for Parallelism <= 1 or an explicit ModeSerial, the requested mode
// for an explicit ModeSteal/ModePortfolio (an explicit request bypasses
// the gate, like a negative ParallelThreshold), and the gate's verdict
// — work-stealing or the serial fallback — for ModeAuto. The returned
// reason is non-empty when a Parallelism > 1 request falls back.
func (s *solver) planMode() (SearchMode, string) {
	if s.opt.Parallelism <= 1 {
		return ModeSerial, ""
	}
	switch s.opt.Mode {
	case ModeSerial:
		return ModeSerial, "serial mode requested"
	case ModeSteal, ModePortfolio:
		return s.opt.Mode, ""
	}
	if why := s.serialFallback(); why != "" {
		return ModeSerial, why
	}
	return ModeSteal, ""
}

// serialFallback decides the parallel gate: it returns a non-empty
// human-readable reason when a Parallelism > 1 request should run the
// serial search instead, and "" to honor the parallel request. Called
// with the root LP solved to optimality. The old gate also required a
// minimum number of fractional integers at the root; the work-stealing
// pool splits adaptively wherever the tree actually branches, so a
// thin root no longer matters.
func (s *solver) serialFallback() string {
	th := s.opt.ParallelThreshold
	if th < 0 {
		return "" // gate disabled
	}
	if th == 0 {
		th = DefaultParallelThreshold
	}
	if p := runtime.GOMAXPROCS(0); p < 2 {
		return fmt.Sprintf("GOMAXPROCS=%d: workers would time-slice one core", p)
	}
	m, n := s.prob.NumRows(), s.prob.NumVars()
	cells := int64(m) * int64(m+n)
	if cells < int64(th) {
		return fmt.Sprintf("root tableau %dx%d (%d cells) under threshold %d", m, m+n, cells, th)
	}
	return ""
}

// mostFractional picks the declared integer variable whose value is
// closest to 0.5, preferring the 1-branch when the fraction is >= 0.5.
func (s *solver) mostFractional(x []float64) (int, bool) {
	best, bestDist := -1, 0.5-intTol
	oneFirst := true
	for j, isInt := range s.isInt {
		if !isInt {
			continue
		}
		f := x[j] - math.Floor(x[j])
		frac := math.Min(f, 1-f)
		if frac <= intTol {
			continue
		}
		d := 0.5 - frac // smaller = more fractional
		if best < 0 || d < bestDist {
			best, bestDist = j, d
			oneFirst = x[j] >= 0.5
		}
	}
	return best, oneFirst
}

// limitHit reports why the node loop must stop. total is the global
// node count including this node, so MaxNodes is enforced across all
// workers of a parallel solve, not per goroutine; a stop requested by
// any other worker is observed here too. The context is polled every
// 16 locally-explored nodes so cancellation latency stays bounded.
func (s *solver) limitHit(total int64) stopReason {
	if r := s.sh.stopRequested(); r != reasonNone {
		return r
	}
	if s.opt.MaxNodes > 0 && total > int64(s.opt.MaxNodes) {
		return reasonNodes
	}
	if s.local%16 == 0 && s.ctx.Err() != nil {
		if context.Cause(s.ctx) == context.Canceled {
			return reasonCtx
		}
		return reasonTime
	}
	return reasonNone
}

// FirstFractional returns a Brancher that picks the lowest-index
// fractional variable among cols — the "leave it to the solver" naive
// baseline of the paper's Section 8 comparison.
func FirstFractional(cols []int) Brancher {
	watch := append([]int(nil), cols...)
	return BrancherFunc(func(x []float64, _ func(int) (float64, float64)) (int, bool) {
		for _, j := range watch {
			if isFrac(x[j]) {
				return j, x[j] >= 0.5
			}
		}
		return -1, true
	})
}

// MostFractional returns a Brancher picking the variable closest to
// 0.5 among cols.
func MostFractional(cols []int) Brancher {
	watch := append([]int(nil), cols...)
	return BrancherFunc(func(x []float64, _ func(int) (float64, float64)) (int, bool) {
		best, bestFrac := -1, intTol
		for _, j := range watch {
			f := x[j] - math.Floor(x[j])
			frac := math.Min(f, 1-f)
			if frac > bestFrac {
				best, bestFrac = j, frac
			}
		}
		if best < 0 {
			return -1, true
		}
		return best, x[best] >= 0.5
	})
}

// PriorityBrancher branches on the first fractional variable in tiers:
// tier order first, then position within the tier, always taking the
// 1-branch first — the generalization of the paper's y-then-u rule.
func PriorityBrancher(tiers ...[]int) Brancher {
	copied := make([][]int, len(tiers))
	for i, t := range tiers {
		copied[i] = append([]int(nil), t...)
	}
	return BrancherFunc(func(x []float64, _ func(int) (float64, float64)) (int, bool) {
		for _, tier := range copied {
			for _, j := range tier {
				if isFrac(x[j]) {
					return j, true // paper: always explore the 1-branch first
				}
			}
		}
		return -1, true
	})
}

func isFrac(v float64) bool {
	f := v - math.Floor(v)
	if f > 0.5 {
		f = 1 - f
	}
	return f > intTol
}
