package core

import (
	"fmt"
	"time"

	"repro/internal/milp"
	"repro/internal/partition"
	"repro/internal/sched"
)

// The exact sweep is an alternative optimality engine for instances
// with few tasks (every benchmark instance qualifies): it enumerates
// order- and memory-valid task assignments with cost-bound pruning and
// certifies each candidate with the budgeted exact scheduler. When
// every candidate below the incumbent resolves, the incumbent is
// provably optimal and branch and bound reduces to a formality; when
// some candidates blow the scheduling budget, they stay in the shared
// probe cache and branch and bound settles only those.
//
// Enabled by Options.ExactSweep; the paper-faithful rows (Tables 1-2,
// the branching ablation) leave it off so they measure the ILP search
// itself.

// sweepResult reports an exact sweep.
type sweepResult struct {
	// best is the best verified solution found (nil when none).
	best *partition.Solution
	// unresolved counts assignments the scheduler could not settle
	// within budget; optimality is proved only when it is zero.
	unresolved int
	// unresolvedParts lists those assignments for targeted settling.
	unresolvedParts [][]int
	// enumerated counts assignments reaching the exact scheduler.
	enumerated int
	// nodes and pivots accumulate the branch-and-bound nodes and
	// simplex iterations spent settling stubborn assignments, so sweep
	// results report solver effort uniformly with the LP search path.
	nodes  int
	pivots int
}

// maxSweepTasks bounds the assignment enumeration.
const maxSweepTasks = 12

// exactSweep enumerates assignments cheaper than the given incumbent
// bound (math-style: comm < bound; bound < 0 means unbounded). The
// deadline bounds the whole enumeration: on expiry every assignment
// not yet settled counts as unresolved, which keeps the result sound
// (optimality is only claimed when unresolved is zero).
func (m *Model) exactSweep(incumbent *partition.Solution, deadline time.Time) sweepResult {
	g := m.Inst.Graph
	res := sweepResult{best: incumbent}
	bound := -1
	if incumbent != nil {
		bound = incumbent.Comm
	}
	order, err := g.TopoTasks()
	if err != nil {
		return res
	}
	nt := g.NumTasks()
	assign := make([]int, nt)
	expired := false
	var sc sched.ListScratch // list-scheduler tables for every witness

	var rec func(idx, partial int)
	rec = func(idx, partial int) {
		if expired {
			return
		}
		if bound >= 0 && partial >= bound {
			return
		}
		if idx == nt {
			if m.cancelled() || (!deadline.IsZero() && time.Now().After(deadline)) {
				expired = true
				res.unresolved++ // at least this one is unsettled
				return
			}
			// memory check at every boundary
			for p := 2; p <= m.N; p++ {
				if sched.MemoryAt(g, assign, p) > m.Inst.Device.ScratchMem {
					return
				}
			}
			res.enumerated++
			ent := m.scheduleForDeadline(assign, true, deadline, &sc)
			switch ent.status {
			case schedFound:
				sol := m.solutionFrom(assign, ent.step, ent.unit)
				if sol != nil && (bound < 0 || sol.Comm < bound) {
					res.best = sol
					bound = sol.Comm
				}
			case schedBudget:
				res.unresolved++
				res.unresolvedParts = append(res.unresolvedParts, append([]int(nil), assign...))
			}
			return
		}
		t := order[idx]
		lo := 1
		for _, pr := range g.TaskPred(t) {
			if assign[pr] > lo {
				lo = assign[pr]
			}
		}
		for p := lo; p <= m.N; p++ {
			assign[t] = p
			delta := 0
			for _, pr := range g.TaskPred(t) {
				delta += g.Bandwidth(pr, t) * (p - assign[pr])
			}
			rec(idx+1, partial+delta)
		}
		assign[t] = 0
	}
	rec(0, 0)
	if expired {
		// signal that the enumeration was cut short
		res.unresolved++
	}
	return res
}

// solutionFrom converts an exact schedule into a verified Solution.
func (m *Model) solutionFrom(part []int, step, unit []int) *partition.Solution {
	sol := &partition.Solution{
		N:             m.N,
		TaskPartition: append([]int(nil), part...),
		OpStep:        append([]int(nil), step...),
		OpUnit:        append([]int(nil), unit...),
	}
	sol.Comm = sol.CommCost(m.Inst.Graph)
	err := partition.Verify(m.Inst.Graph, m.Inst.Alloc, m.Inst.Device, sol, partition.VerifyOptions{
		L:          m.Opt.L,
		Windows:    m.Win,
		Multicycle: m.Opt.Multicycle,
	})
	if err != nil {
		return nil
	}
	return sol
}

// settleUnresolved attacks the assignments the exact scheduler could
// not decide by solving a restricted MILP per assignment (every y
// pinned, so branch and bound works only on the scheduling/binding
// variables). Settled assignments are removed from the unresolved
// count; a strictly better solution updates best. perAssignment bounds
// each restricted solve.
func (m *Model) settleUnresolved(sw *sweepResult, perAssignment time.Duration) {
	if len(sw.unresolvedParts) == 0 {
		return
	}
	// snapshot original y bounds
	type saved struct {
		col    int
		lo, hi float64
	}
	var stash []saved
	for _, col := range m.tierY {
		lo, hi := m.P.Bounds(col)
		stash = append(stash, saved{col, lo, hi})
	}
	restore := func() {
		for _, sv := range stash {
			_ = m.P.SetVarBounds(sv.col, sv.lo, sv.hi)
		}
	}
	defer restore()

	var remaining [][]int
	for i, part := range sw.unresolvedParts {
		if m.cancelled() {
			// hand the leftovers back unsettled; the caller's branch
			// and bound will observe the same cancellation immediately
			remaining = append(remaining, sw.unresolvedParts[i:]...)
			break
		}
		for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
			for p := 1; p <= m.N; p++ {
				v := 0.0
				if part[t] == p {
					v = 1
				}
				_ = m.P.SetVarBounds(m.Y[[2]int{t, p}], v, v)
			}
		}
		res, err := milp.SolveContext(m.solveCtx(), m.P, milp.Options{
			IntVars:     m.intVars,
			Brancher:    milp.BrancherFunc(m.paperBranch),
			ObjIntegral: true,
			TimeLimit:   perAssignment,
			Complete:    m.complete,
			Probe:       m.probe,
		})
		if res != nil {
			sw.nodes += res.Nodes
			sw.pivots += res.LPIterations
		}
		switch {
		case err != nil:
			remaining = append(remaining, part)
		case res.Status == milp.StatusInfeasible:
			// assignment proven unschedulable; cache the proof
			m.cacheProbe(fmt.Sprint(part), probeEntry{status: schedInfeasible, full: true})
		case res.Status == milp.StatusOptimal || res.Status == milp.StatusFeasible:
			// the objective is fixed by the assignment, so any feasible
			// point settles it optimally
			sol, err := m.Extract(res.X)
			if err != nil {
				remaining = append(remaining, part)
				break
			}
			if sw.best == nil || sol.Comm < sw.best.Comm {
				sw.best = sol
			}
			// cache the schedule so later probes fathom this assignment
			m.cacheProbe(fmt.Sprint(part), probeEntry{
				status: schedFound, full: true,
				step: append([]int(nil), sol.OpStep...),
				unit: append([]int(nil), sol.OpUnit...),
			})
		default:
			remaining = append(remaining, part)
		}
	}
	sw.unresolved = len(remaining)
	sw.unresolvedParts = remaining
}
