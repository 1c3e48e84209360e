// Package heuristic implements a fast, non-optimal temporal
// partitioning flow: it enumerates task-to-segment assignments with
// order/memory/cost pruning and certifies each candidate with the
// resource-constrained list scheduler. It serves three roles:
//
//   - the fast baseline the ILP's optimal results are contrasted with,
//   - an upper-bound provider (a heuristic-feasible design is
//     ILP-feasible by construction, so its cost can prime the
//     branch-and-bound incumbent),
//   - the estimator behind the N-segment bound of the paper's flow.
package heuristic

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/sched"
)

// Result is the outcome of a heuristic solve.
type Result struct {
	// Feasible reports whether any enumerated assignment schedules
	// within the step budget. The heuristic scheduler is not exact:
	// Feasible=false does NOT prove ILP infeasibility.
	Feasible bool
	// Segment is the best task-to-segment assignment found (1-based).
	Segment []int
	// Comm is its communication cost (an upper bound on the optimum).
	Comm int
	// Steps is the total schedule length of the best assignment.
	Steps int
	// Explored counts enumerated assignments.
	Explored int
}

// Solve enumerates assignments of tasks to at most N segments and
// returns the cheapest one the list scheduler can realize within the
// CP+L step budget. Enumeration is pruned by task order, scratch
// memory, and the best cost found so far.
func Solve(g *graph.Graph, alloc *library.Allocation, dev library.Device, N, L int) (*Result, error) {
	return SolveBudget(g, alloc, dev, N, L, 0)
}

// SolveBudget is Solve with a cap on evaluated leaf assignments
// (0 = unlimited). A capped run still returns a valid (possibly
// non-minimal) feasible assignment when one was found before the cap.
func SolveBudget(g *graph.Graph, alloc *library.Allocation, dev library.Device, N, L, maxLeaves int) (*Result, error) {
	if k, ok := alloc.Covers(g); !ok {
		return nil, fmt.Errorf("heuristic: no unit executes %q", k)
	}
	w, err := sched.ComputeWindows(g, nil)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoTasks()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	nt := g.NumTasks()
	assign := make([]int, nt)
	pos := make([]int, nt) // task -> position in topo order
	for i, t := range order {
		pos[t] = i
	}
	bestComm := -1
	bestSteps := 0
	var bestAssign []int
	budget := w.MaxStep(L)
	var sc sched.ListScratch // list-scheduler tables for every leaf

	var rec func(idx int, partial int)
	rec = func(idx, partial int) {
		if maxLeaves > 0 && res.Explored >= maxLeaves {
			return // leaf budget exhausted; keep the best found so far
		}
		if bestComm >= 0 && partial >= bestComm {
			return // cannot beat the incumbent
		}
		if idx == nt {
			res.Explored++
			// memory check at every boundary
			for p := 2; p <= N; p++ {
				if sched.MemoryAt(g, assign, p) > dev.ScratchMem {
					return
				}
			}
			steps, ok := schedulable(g, alloc, dev, w, assign, N, budget, &sc)
			if !ok {
				return
			}
			bestComm = partial
			bestSteps = steps
			bestAssign = append(bestAssign[:0], assign...)
			return
		}
		t := order[idx]
		lo := 1
		for _, pr := range g.TaskPred(t) {
			if assign[pr] > lo {
				lo = assign[pr] // predecessors are earlier in topo order
			}
		}
		for p := lo; p <= N; p++ {
			assign[t] = p
			// incremental comm: edges from already-assigned preds
			delta := 0
			for _, pr := range g.TaskPred(t) {
				delta += g.Bandwidth(pr, t) * (p - assign[pr])
			}
			rec(idx+1, partial+delta)
		}
		assign[t] = 0
	}
	rec(0, 0)
	if bestComm >= 0 {
		res.Feasible = true
		res.Comm = bestComm
		res.Steps = bestSteps
		res.Segment = bestAssign
	}
	return res, nil
}

// schedulable list-schedules every segment of the assignment with the
// tables in sc and reports the total step count and whether it fits
// the budget.
func schedulable(g *graph.Graph, alloc *library.Allocation, dev library.Device, w *sched.Windows, assign []int, N, budget int, sc *sched.ListScratch) (int, bool) {
	plan := &sched.SegmentPlan{Segment: assign, N: N}
	asg, err := sched.HeuristicSchedule(g, alloc, dev, w, plan, sc)
	if err != nil {
		return 0, false
	}
	return asg.Span, asg.Span <= budget
}
