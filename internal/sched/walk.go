package sched

import (
	"context"
	"slices"

	"repro/internal/graph"
	"repro/internal/library"
)

// A Cut refutes prefixes of the assignment walk. Join adds task t,
// placed in segment p, to the prefix and reports whether a feasible
// leaf may still lie below it; Leave takes the task out again. The walk
// calls Leave after every Join, refused or not, latest first. A cut
// must refute monotonically: every prefix extending a refused one must
// be refused too, which is what lets the walk skip the subtree.
type Cut interface {
	Join(t, p int) bool
	Leave(t, p int)
}

// WalkAssignments walks the assignments of g's tasks to segments 1..n
// depth first: tasks in topological order, each tried in its segments
// ascending from the latest of its predecessors', so that no task lands
// before a predecessor. The communication cost (CommCost) is summed as
// each task joins, and it only grows along a path and with the segment,
// so when *bound >= 0 a prefix costing *bound or more is cut with every
// leaf below it. A non-nil cut is asked next, and a prefix it refuses
// is cut the same way. visit receives each leaf that survives with its
// cost, may lower *bound, and returns false to end the walk; a bound of
// -1 walks every leaf. The assignment belongs to the walk: a visitor
// that keeps it copies it. The error is the task graph's cycle, if it
// has one.
func WalkAssignments(g *graph.Graph, n int, bound *int, cut Cut, visit func(assign []int, comm int) bool) error {
	order, err := g.TopoTasks()
	if err != nil {
		return err
	}
	assign := make([]int, g.NumTasks())
	more := true
	var rec func(idx, partial int)
	rec = func(idx, partial int) {
		if idx == len(order) {
			more = visit(assign, partial)
			return
		}
		t := order[idx]
		lo := 1
		for _, pr := range g.TaskPred(t) {
			if assign[pr] > lo {
				lo = assign[pr] // predecessors are earlier in the order
			}
		}
		for p := lo; p <= n && more; p++ {
			assign[t] = p
			next := partial
			for _, pr := range g.TaskPred(t) {
				next += g.Bandwidth(pr, t) * (p - assign[pr])
			}
			if *bound >= 0 && next >= *bound {
				break // the later segments cost no less
			}
			if cut == nil || cut.Join(t, p) {
				rec(idx+1, next)
			}
			if cut != nil {
				cut.Leave(t, p)
			}
		}
		assign[t] = 0
	}
	if *bound != 0 { // a bound of 0 leaves no cheaper leaf
		rec(0, 0)
	}
	return nil
}

// MemoryFits reports whether scratch memory of the given size holds the
// data live across every boundary 2..n of the assignment (eq. 3).
func MemoryFits(g *graph.Graph, segment []int, n, scratch int) bool {
	for p := 2; p <= n; p++ {
		if MemoryAt(g, segment, p) > scratch {
			return false
		}
	}
	return true
}

// Baseline is the list-scheduling baseline, a fast non-optimal
// partitioning flow. It walks the assignments of g's tasks to at most n
// segments (WalkAssignments) and list-schedules each one that is
// cheaper than the best so far and fits the scratch memory
// (HeuristicSchedule). It returns the cheapest plan whose schedule fits
// the step budget of latency relaxation l, with that schedule, or nil
// and nil when no walked assignment's does. The list scheduler is not
// exact, so nil proves nothing; a plan is a feasible design, whose cost
// bounds the optimum from above. The walk ends after maxLeaves leaves
// (0 = no cap), or at the first leaf after ctx is done; either way the
// best plan found so far is returned.
func Baseline(ctx context.Context, g *graph.Graph, alloc *library.Allocation, dev library.Device, w *Windows, n, l, maxLeaves int) (*SegmentPlan, *Assignment, error) {
	var (
		best     *SegmentPlan
		schedule *Assignment
		sc       ListScratch // list-scheduler tables for every leaf
	)
	bound, leaves := -1, 0
	err := WalkAssignments(g, n, &bound, nil, func(assign []int, comm int) bool {
		if ctx.Err() != nil {
			return false
		}
		leaves++
		if MemoryFits(g, assign, n, dev.ScratchMem) {
			plan := &SegmentPlan{Segment: assign, N: n}
			if a, err := HeuristicSchedule(g, alloc, dev, w, plan, &sc); err == nil && a.Span <= w.MaxStep(l) {
				// plan and a live in the walk and in sc: copy them out
				best = &SegmentPlan{Segment: slices.Clone(assign), N: n, Steps: slices.Clone(plan.Steps), Comm: comm}
				schedule = &Assignment{Step: slices.Clone(a.Step), Unit: slices.Clone(a.Unit), Span: a.Span}
				bound = comm
			}
		}
		return maxLeaves <= 0 || leaves < maxLeaves
	})
	return best, schedule, err
}
