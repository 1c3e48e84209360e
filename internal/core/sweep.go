package core

import (
	"repro/internal/partition"
	"repro/internal/sched"
)

// The exact sweep is an alternative optimality engine for instances
// with few tasks (every benchmark instance qualifies): it enumerates
// order- and memory-valid task assignments with cost-bound pruning and
// the step count's prefix cut (stepCount), and settles each candidate
// with the list scheduler or, where that fails, the budgeted exact
// scheduler. It primes itself: the list scheduler's
// solutions lower its bound as it walks. When every candidate below
// the final bound resolves, the best solution is provably optimal and
// branch and bound reduces to a formality; when some candidates blow
// the scheduling budget, they stay in the shared probe cache and branch
// and bound settles only those.
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

// exactSweep walks the assignments cheaper than the incumbent (comm <
// incumbent.Comm; nil leaves the walk unbounded) once, with
// sched.WalkAssignments, cutting every prefix the step count refutes
// with its subtree, and settles each leaf that fits the scratch memory
// in two steps. The list scheduler runs as the walk reaches the leaf: a
// schedule within the step budget is a solution, whose cost becomes the
// bound, and the leaves it fails are kept with their costs. Then the
// exact scheduler takes, in walk order and through the probe cache, the
// kept leaves still under the bound. Costs only grow along the walk, so
// it sees no leaf a separate list-scheduled baseline would prune.
// Under Multicycle there is no list scheduler, so each leaf goes to the
// exact scheduler at once. Once the walk keeps as many leaves as the
// probe cache holds, it settles them before walking on, which bounds
// their memory.
//
// The sweep runs under the solve's context (m.ctx): once that is done,
// every assignment not yet settled counts as unresolved, which keeps
// the result sound (optimality is only claimed when unresolved is
// zero).
func (m *Model) exactSweep(incumbent *partition.Solution) sweepResult {
	g, nt := m.Inst.Graph, m.Inst.Graph.NumTasks()
	res := sweepResult{best: incumbent}
	bound := -1
	if incumbent != nil {
		bound = incumbent.Comm
	}
	improve := func(part, step, unit []int) {
		if sol := m.solutionFrom(part, step, unit); sol != nil && (bound < 0 || sol.Comm < bound) {
			res.best, bound = sol, sol.Comm
		}
	}
	expired := false
	settle := func(part []int) {
		if expired || m.cancelled() {
			expired = true
			return
		}
		res.enumerated++
		switch ent := m.scheduleFor(part, true, false); ent.status {
		case schedFound:
			improve(part, ent.step, ent.unit)
		case schedBudget:
			res.unresolved++
		}
	}
	var kept, keptComm []int // nt segments per kept leaf, and its cost
	settleKept := func() {
		for i, comm := range keptComm {
			if bound < 0 || comm < bound {
				settle(kept[i*nt : (i+1)*nt])
			}
		}
		kept, keptComm = kept[:0], keptComm[:0]
	}
	var sc sched.ListScratch // list-scheduler tables for every leaf
	var cut stepCount
	cut.init(m)
	// the instance was validated, so its task graph is acyclic
	_ = sched.WalkAssignments(g, m.N, &bound, &cut, func(part []int, comm int) bool {
		if m.cancelled() {
			expired = true
			return false
		}
		if !sched.MemoryFits(g, part, m.N, m.Inst.Device.ScratchMem) {
			return true
		}
		switch step, unit, ok := m.listWitness(part, &sc); {
		case ok:
			improve(part, step, unit)
		case m.Opt.Multicycle:
			settle(part)
		default:
			kept = append(kept, part...)
			keptComm = append(keptComm, comm)
			if len(keptComm) == maxProbeEntries {
				settleKept()
			}
		}
		return !expired
	})
	settleKept()
	if expired {
		res.unresolved++ // the enumeration was cut short
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
