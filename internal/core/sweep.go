package core

import (
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
	// enumerated counts assignments reaching the exact scheduler.
	enumerated int
}

// maxSweepTasks bounds the assignment enumeration.
const maxSweepTasks = 12

// exactSweep enumerates assignments cheaper than the given incumbent
// bound (math-style: comm < bound; bound < 0 means unbounded). It runs
// under the solve's context (m.ctx): once that is done, every
// assignment not yet settled counts as unresolved, which keeps the
// result sound (optimality is only claimed when unresolved is zero).
func (m *Model) exactSweep(incumbent *partition.Solution) sweepResult {
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
			if m.cancelled() {
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
			ent := m.scheduleFor(assign, true, &sc)
			switch ent.status {
			case schedFound:
				sol := m.solutionFrom(assign, ent.step, ent.unit)
				if sol != nil && (bound < 0 || sol.Comm < bound) {
					res.best = sol
					bound = sol.Comm
				}
			case schedBudget:
				res.unresolved++
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
