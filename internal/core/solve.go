package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/exact"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/partition"
	"repro/internal/sched"
)

// Result reports a combined temporal-partitioning-and-synthesis solve.
type Result struct {
	// Feasible reports whether an integer solution exists (the
	// "Feasible" column of the paper's tables).
	Feasible bool
	// Optimal reports whether the solution was proved optimal (false
	// when a node or time limit stopped the search).
	Optimal bool
	// Cancelled reports that the caller's context was cancelled before
	// the search could finish. The best solution found before the
	// cancellation, if any, is still reported in Solution.
	Cancelled bool
	// Solution is the extracted and independently verified solution
	// (nil when infeasible).
	Solution *partition.Solution
	// Stats is the generated model size (Var/Const columns).
	Stats lp.Stats
	// Nodes is the number of branch-and-bound nodes explored (0 when
	// the exact sweep or presolve decided the solve).
	Nodes int
	// LPIterations is the total simplex pivot count (LP
	// re-optimizations) of branch and bound.
	LPIterations int
	// Runtime is the solver wall-clock time, the exact sweep included.
	Runtime time.Duration
	// Certificate is the exact-arithmetic certificate of the MILP
	// verdict, present when Options.Certify was set and the main search
	// ran (the exact-sweep early path and the presolve-infeasible path
	// never enter the MILP and carry none). Already checked; see
	// Certificate.Valid / Err().
	Certificate *exact.Certificate
	// SearchMode names the branch-and-bound scheduler that actually
	// ran ("serial" or "steal") — the size gate's resolution of the
	// search parallelism — or "auto" when the root LP decided the
	// solve. Empty on paths that never enter the MILP search.
	SearchMode string
	// Steals counts work-stealing transfers between workers (zero for
	// serial searches).
	Steals int64
	// CutsApplied is the number of root cover cuts that survived
	// separation and strengthened the root relaxation.
	CutsApplied int
	// FirstIncumbentNodes is the node count at which the MILP search
	// installed its first incumbent (0 when the root dive found it
	// before any node, or when no incumbent exists).
	FirstIncumbentNodes int64
	// TimeToFirstIncumbent is the wall-clock time into the MILP search
	// at the first incumbent install (0 when none was found).
	TimeToFirstIncumbent time.Duration
	// TimeToProof is the MILP wall-clock time to a proved verdict
	// (optimal or infeasible); 0 when the search was stopped by a limit.
	TimeToProof time.Duration
}

// SolveContext runs branch and bound on the generated model with the
// configured branching rule, then extracts and verifies the solution.
// It runs under a context: cancellation cooperatively stops the exact
// sweep, the node probes and the branch-and-bound pivot loops,
// returning a Result with Cancelled set (and the best incumbent found
// so far, when one exists) rather than running to completion.
// Options.TimeLimit becomes a deadline on that context, which every
// one of those loops polls; its expiry stops the solve the same way
// but leaves Cancelled unset. A terminal result event is emitted on
// Options.Trace when tracing is on.
func (m *Model) SolveContext(ctx context.Context) (*Result, error) {
	res, err := m.solveContext(ctx)
	if err == nil && res != nil {
		m.emitResult(res)
	}
	return res, err
}

func (m *Model) solveContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	solveStart := time.Now()
	if m.Opt.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, solveStart.Add(m.Opt.TimeLimit))
		defer cancel()
	}
	m.ctx = ctx
	// All rules watch only the decision variables y, u and x; the
	// auxiliary variables (o, c, z, w, ...) are implied once those are
	// integral and are filled in by the completion hook, so no rule
	// ever branches on them.
	decision := append(append(append([]int{}, m.tierY...), m.tierU...), m.tierX...)
	sort.Ints(decision)
	search := m.Opt.Search
	var brancher milp.Brancher
	switch search.Branch {
	case BranchFirstFrac:
		brancher = milp.FirstFractional(decision)
	case BranchMostFrac:
		brancher = milp.MostFractional(decision)
	default:
		brancher = milp.BrancherFunc(m.paperBranch)
	}
	presolveSpan := m.Opt.Span.Child("presolve") // nil-safe when spans are off
	if m.ApplyPresolve() {
		presolveSpan.SetStr("outcome", "solved")
		presolveSpan.End()
		return &Result{Stats: m.Stats(), Optimal: true}, nil
	}
	presolveSpan.End()
	mopt := milp.Options{
		IntVars:           m.intVars,
		Brancher:          brancher,
		ObjIntegral:       true,
		MaxNodes:          m.Opt.MaxNodes,
		Complete:          m.complete,
		Parallelism:       search.Parallelism,
		ParallelThreshold: search.Threshold,
		Trace:             m.Opt.Trace,
		Record:            m.Opt.Record,
		Profile:           m.Opt.Profile,
		Certify:           m.Opt.Certify,
		Span:              m.Opt.Span,
		BlackBox:          m.Opt.BlackBox,
		Status:            m.Opt.Status,
		PanicNode:         m.Opt.PanicNode,
		NodeDelay:         m.Opt.NodeDelay,
	}
	// Root strengthening: explicit toggles win; auto enables the cuts
	// and the dive exactly when a parallel search was requested (they
	// exist to shrink the shared tree and seed the shared incumbent,
	// and keeping serial solves bit-identical to the paper's algorithm
	// matters more than a marginal serial speedup).
	autoStrength := search.Parallelism > 1 && m.warm == nil
	mopt.RootCuts = search.Cuts == ToggleOn || (search.Cuts == ToggleAuto && autoStrength)
	mopt.Dive = search.Dive == ToggleOn || (search.Dive == ToggleAuto && autoStrength)
	if !m.Opt.DisableProbe {
		mopt.Probe = m.probe
	}
	var prime *partition.Solution
	if m.warm != nil {
		mopt.Warm = m.warm.Solver
		mopt.OnRoot = m.warm.OnRoot
		prime = m.warm.Prime
	}
	sweep := m.Opt.ExactSweep && m.Inst.Graph.NumTasks() <= maxSweepTasks
	if prime == nil && !sweep && (m.Opt.PrimeHeuristic || m.Opt.ExactSweep) {
		// the sweep primes itself; without it, the baseline does
		prime = m.heuristicIncumbent()
	}
	if sweep {
		cancelSweep := func() {}
		if m.Opt.TimeLimit > 0 {
			// the sweep gets half the budget, branch and bound the rest
			m.ctx, cancelSweep = context.WithTimeout(ctx, m.Opt.TimeLimit/2)
		}
		sw := m.exactSweep(prime)
		cancelSweep()
		m.ctx = ctx
		if sw.unresolved == 0 {
			// the sweep settled every candidate: proven result
			out := &Result{
				Stats:   m.Stats(),
				Optimal: true,
				Runtime: time.Since(solveStart),
			}
			if sw.best != nil {
				out.Feasible = true
				out.Solution = sw.best
			}
			return out, nil
		}
		if sw.best != nil {
			prime = sw.best // at least as good as the prime it started from
		}
	}
	if prime != nil {
		// prune anything that cannot strictly beat the incumbent
		mopt.InitialUpper = float64(prime.Comm)
	}
	if mopt.Parallelism > 1 {
		// the probe and branching hooks read the graph's lazily-built
		// adjacency caches from every worker; force the rebuild now so
		// concurrent readers never trigger it
		if _, err := m.Inst.Graph.TopoOps(); err != nil {
			return nil, err
		}
	}
	res, err := milp.SolveContext(ctx, m.P, mopt)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Stats:                m.Stats(),
		Nodes:                res.Nodes,
		LPIterations:         res.LPIterations,
		Runtime:              time.Since(solveStart),
		Certificate:          res.Certificate,
		SearchMode:           res.Mode.String(),
		Steals:               res.Steals,
		CutsApplied:          res.CutsApplied,
		FirstIncumbentNodes:  res.FirstIncumbentNodes,
		TimeToFirstIncumbent: res.FirstIncumbent,
		TimeToProof:          res.TimeToProof,
	}
	if out.Certificate != nil {
		out.Certificate.Label = m.Inst.Graph.Name
	}
	switch res.Status {
	case milp.StatusInfeasible:
		if prime != nil {
			// nothing beats the priming solution: it is optimal
			out.Feasible, out.Optimal, out.Solution = true, true, prime
			return out, nil
		}
		out.Optimal = true
		return out, nil
	case milp.StatusCancelled, milp.StatusNodeLimit, milp.StatusLimit:
		out.Cancelled = res.Status == milp.StatusCancelled
		// salvage the milp incumbent when one was found, otherwise
		// fall back on the prime
		if res.X != nil {
			if sol, xerr := m.Extract(res.X); xerr == nil {
				out.Feasible, out.Solution = true, sol
			}
		}
		if out.Solution == nil && prime != nil {
			out.Feasible, out.Solution = true, prime
		}
		return out, nil
	case milp.StatusOptimal:
		out.Optimal = true
	}
	out.Feasible = true
	sol, err := m.Extract(res.X)
	if err != nil {
		return nil, err
	}
	if got := int(math.Round(res.Objective)); got != sol.Comm {
		return nil, fmt.Errorf("core: ILP objective %d != extracted comm %d", got, sol.Comm)
	}
	out.Solution = sol
	return out, nil
}

// cancelled reports whether the running solve's context is done
// (cancelled or past its deadline); the sweep and the exact-scheduling
// probes poll it so both are honored between (and inside) LP solves
// too.
func (m *Model) cancelled() bool {
	return m.ctx != nil && m.ctx.Err() != nil
}

// baselineLeaves caps the leaves the list-scheduling baseline walks
// for heuristicIncumbent.
const baselineLeaves = 20_000

// heuristicIncumbent runs the list-scheduling baseline
// (sched.Baseline) under the solve's context and converts its best
// design into a verified Solution usable as a priming incumbent; nil
// when the baseline finds nothing or verification fails.
func (m *Model) heuristicIncumbent() *partition.Solution {
	if m.Opt.Multicycle {
		return nil // the list-scheduling baseline assumes unit latency
	}
	plan, asg, err := sched.Baseline(m.ctx, m.Inst.Graph, m.Inst.Alloc, m.Inst.Device, m.Win, m.N, m.Opt.L, baselineLeaves)
	if err != nil || plan == nil {
		return nil
	}
	return m.solutionFrom(plan.Segment, asg.Step, asg.Unit)
}

// Extract converts an integral model solution vector into a verified
// partition.Solution.
func (m *Model) Extract(x []float64) (*partition.Solution, error) {
	g := m.Inst.Graph
	sol := &partition.Solution{
		N:             m.N,
		TaskPartition: make([]int, g.NumTasks()),
		OpStep:        make([]int, g.NumOps()),
		OpUnit:        make([]int, g.NumOps()),
	}
	for i := range sol.OpUnit {
		sol.OpUnit[i] = -1
	}
	for t := 0; t < g.NumTasks(); t++ {
		for p := 1; p <= m.N; p++ {
			if x[m.Y[[2]int{t, p}]] > 0.5 {
				if sol.TaskPartition[t] != 0 {
					return nil, fmt.Errorf("core: task %d assigned twice", t)
				}
				sol.TaskPartition[t] = p
			}
		}
		if sol.TaskPartition[t] == 0 {
			return nil, fmt.Errorf("core: task %d unassigned", t)
		}
	}
	for key, col := range m.X {
		if x[col] > 0.5 {
			i := key[0]
			if sol.OpUnit[i] != -1 {
				return nil, fmt.Errorf("core: op %d assigned twice", i)
			}
			sol.OpStep[i] = key[1]
			sol.OpUnit[i] = key[2]
		}
	}
	for i, u := range sol.OpUnit {
		if u == -1 {
			return nil, fmt.Errorf("core: op %d unassigned", i)
		}
	}
	sol.Comm = sol.CommCost(g)
	err := partition.Verify(g, m.Inst.Alloc, m.Inst.Device, sol, partition.VerifyOptions{
		L:          m.Opt.L,
		Windows:    m.Win,
		Multicycle: m.Opt.Multicycle,
	})
	if err != nil {
		return nil, fmt.Errorf("core: extracted solution failed verification: %w", err)
	}
	return sol, nil
}

// complete derives every auxiliary variable from integral y and x
// values: o from bindings, c from step occupancy, z = y*o, u from z,
// w (and per-product terms) from the partition assignment. The result
// is integer feasible whenever the decision variables are — see the
// milp.Options.Complete contract.
func (m *Model) complete(x []float64) []float64 {
	g := m.Inst.Graph
	xc := append([]float64(nil), x...)
	frac := func(v float64) bool { f := v - math.Floor(v); return f > 1e-6 && f < 1-1e-6 }
	for _, col := range m.tierY {
		if frac(xc[col]) {
			return nil
		}
		xc[col] = math.Round(xc[col])
	}
	for _, col := range m.tierX {
		if frac(xc[col]) {
			return nil
		}
		xc[col] = math.Round(xc[col])
	}
	// partitions from y
	part := make([]int, g.NumTasks())
	for t := 0; t < g.NumTasks(); t++ {
		for p := 1; p <= m.N; p++ {
			if xc[m.Y[[2]int{t, p}]] > 0.5 {
				part[t] = p
				break
			}
		}
		if part[t] == 0 {
			return nil
		}
	}
	// o from x
	for key, col := range m.O {
		t, k := key[0], key[1]
		used := 0.0
		for _, i := range g.Task(t).Ops {
			for _, j := range m.cs[i] {
				if xcol, ok := m.X[[3]int{i, j, k}]; ok && xc[xcol] > 0.5 {
					used = 1
				}
			}
		}
		xc[col] = used
	}
	// c from occupied steps
	for key, col := range m.C {
		t, j := key[0], key[1]
		occ := 0.0
		for _, i := range g.Task(t).Ops {
			for _, js := range m.cs[i] {
				for _, k := range m.fu[i] {
					xcol, ok := m.X[[3]int{i, js, k}]
					if !ok || xc[xcol] < 0.5 {
						continue
					}
					if js <= j && j < js+m.latOf(k) {
						occ = 1
					}
				}
			}
		}
		xc[col] = occ
	}
	// z = y*o, u = OR_t z
	for key, col := range m.Z {
		p, t, k := key[0], key[1], key[2]
		xc[col] = xc[m.Y[[2]int{t, p}]] * xc[m.O[[2]int{t, k}]]
	}
	for key, col := range m.U {
		p, k := key[0], key[1]
		v := 0.0
		for t := 0; t < g.NumTasks(); t++ {
			if z, ok := m.Z[[3]int{p, t, k}]; ok && xc[z] > 0.5 {
				v = 1
			}
		}
		xc[col] = v
	}
	// w from the partition assignment
	for key, col := range m.W {
		p, t1, t2 := key[0], key[1], key[2]
		if part[t1] < p && part[t2] >= p {
			xc[col] = 1
		} else {
			xc[col] = 0
		}
	}
	for key, col := range m.Prod {
		t1, t2, p1, p2 := key[0], key[1], key[2], key[3]
		if part[t1] == p1 && part[t2] == p2 {
			xc[col] = 1
		} else {
			xc[col] = 0
		}
	}
	return xc
}

// SolveInstance builds the model and solves it in one call.
func SolveInstance(inst Instance, opt Options) (*Result, error) {
	return SolveInstanceContext(context.Background(), inst, opt)
}

// SolveInstanceContext builds the model and solves it under ctx; see
// Model.SolveContext for the cancellation semantics.
func SolveInstanceContext(ctx context.Context, inst Instance, opt Options) (*Result, error) {
	m, err := Build(inst, opt)
	if err != nil {
		return nil, err
	}
	return m.SolveContext(ctx)
}

// EstimateN exposes the heuristic segment-count estimate used when
// Options.N is zero.
func EstimateN(inst Instance) (int, error) {
	plan, err := sched.EstimateSegments(inst.Graph, inst.Alloc, inst.Device)
	if err != nil {
		return 0, err
	}
	return plan.N, nil
}
