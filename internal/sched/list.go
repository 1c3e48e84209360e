package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/library"
)

// Assignment is an op -> (start step, FU instance) mapping produced by
// the list scheduler. Steps are local to the scheduled segment,
// starting at 1.
type Assignment struct {
	Step []int // start step per op ID (0 = not scheduled)
	Unit []int // FU instance ID per op ID (-1 = not scheduled)
	Span int   // makespan in steps
}

// ListSchedule performs resource-constrained list scheduling of the
// operations in ops (IDs into g) on the FU instances units (IDs into
// alloc). Priority is least-ALAP-first using the provided windows.
// Non-pipelined multicycle units block for their full latency;
// pipelined units accept one operation per step. It returns an error
// when some operation has no compatible unit.
func ListSchedule(g *graph.Graph, alloc *library.Allocation, w *Windows, ops []int, units []int) (*Assignment, error) {
	no := g.NumOps()
	inSet := make([]bool, no)
	for _, o := range ops {
		inSet[o] = true
	}
	a := &Assignment{
		Step: make([]int, no),
		Unit: make([]int, no),
	}
	for i := range a.Unit {
		a.Unit[i] = -1
	}
	// compatible units per op, in the order of units, and predecessors
	// restricted to the scheduled set: those are the only ones that
	// gate readiness inside a segment; callers schedule segments in
	// dependency order so external predecessors already completed.
	// Both lists share one backing array each.
	npred := 0
	for _, o := range ops {
		npred += len(g.OpPred(o))
	}
	compat := make([][]int, no)
	preds := make([][]int, no)
	compatAll := make([]int, 0, len(ops)*len(units))
	predAll := make([]int, 0, npred)
	for _, o := range ops {
		start := len(compatAll)
		for _, u := range units {
			if alloc.Unit(u).Type.CanExecute(g.Op(o).Kind) {
				compatAll = append(compatAll, u)
			}
		}
		if len(compatAll) == start {
			return nil, fmt.Errorf("sched: op %d (%s) has no compatible unit", o, g.Op(o).Kind)
		}
		compat[o] = compatAll[start:len(compatAll):len(compatAll)]
		start = len(predAll)
		for _, p := range g.OpPred(o) {
			if inSet[p] {
				predAll = append(predAll, p)
			}
		}
		preds[o] = predAll[start:len(predAll):len(predAll)]
	}
	// busyUntil[u]: first step at which unit u is free to start a new op
	busyUntil := make([]int, alloc.NumUnits())
	done := make([]int, no) // op -> finish step (inclusive)
	remaining := len(ops)
	limit := len(ops)*maxDur(w, ops) + w.CriticalPath + 1
	ready := make([]int, 0, len(ops))
	for step := 1; remaining > 0; step++ {
		if step > limit {
			return nil, fmt.Errorf("sched: list scheduler did not converge (internal error)")
		}
		// ready ops, least ALAP first, then op ID
		ready = ready[:0]
		for _, o := range ops {
			if a.Step[o] != 0 {
				continue
			}
			ok := true
			for _, p := range preds[o] {
				if a.Step[p] == 0 || done[p] >= step {
					ok = false
					break
				}
			}
			if ok {
				ready = append(ready, o)
			}
		}
		slices.SortFunc(ready, func(x, y int) int {
			if c := cmp.Compare(w.ALAP[x], w.ALAP[y]); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		for _, o := range ready {
			for _, u := range compat[o] {
				if busyUntil[u] > step {
					continue
				}
				ft := alloc.Unit(u).Type
				d := w.Dur[o]
				a.Step[o] = step
				a.Unit[o] = u
				done[o] = step + d - 1
				if ft.Pipelined {
					busyUntil[u] = step + 1
				} else {
					busyUntil[u] = step + d
				}
				if done[o] > a.Span {
					a.Span = done[o]
				}
				remaining--
				break
			}
		}
	}
	return a, nil
}

func maxDur(w *Windows, ops []int) int {
	m := 1
	for _, o := range ops {
		if w.Dur[o] > m {
			m = w.Dur[o]
		}
	}
	return m
}

// SegmentPlan is a heuristic task-to-segment assignment.
type SegmentPlan struct {
	// Segment[t] is the 1-based segment index of task t.
	Segment []int
	// N is the number of segments used.
	N int
	// Steps[s] is the makespan of 1-based segment s as scheduled by the
	// list scheduler.
	Steps []int
	// Comm is the total inter-segment communication cost of the plan
	// under the paper's objective (eq. 14): each task edge whose
	// endpoints are in different segments contributes
	// Bandwidth * (number of segment boundaries it crosses... counted
	// once per boundary p with seg(t1) < p <= seg(t2)).
	Comm int
}

// EstimateSegments packs tasks into temporal segments in topological
// order, closing a segment when the minimal FU area needed by its tasks
// no longer fits the device (eq. 11 with the cheapest unit per needed
// kind). This is the paper's "fast, heuristic list scheduling technique
// to estimate the number of segments": the returned N upper-bounds the
// number of segments the optimal solution needs.
func EstimateSegments(g *graph.Graph, alloc *library.Allocation, dev library.Device) (*SegmentPlan, error) {
	if k, ok := alloc.Covers(g); !ok {
		return nil, fmt.Errorf("sched: allocation cannot execute op kind %q", k)
	}
	order, err := g.TopoTasks()
	if err != nil {
		return nil, err
	}
	minFG := func(kinds map[graph.OpKind]bool) int {
		// cheapest single unit per needed kind; a unit may cover
		// several kinds, so greedily account each kind with its
		// cheapest server (lower bound on real area).
		sum := 0
		for k := range kinds {
			best := -1
			for _, u := range alloc.UnitsFor(k) {
				fg := alloc.Unit(u).Type.FG
				if best < 0 || fg < best {
					best = fg
				}
			}
			sum += best
		}
		return sum
	}
	plan := &SegmentPlan{Segment: make([]int, g.NumTasks()), N: 1}
	curKinds := map[graph.OpKind]bool{}
	for _, t := range order {
		tk := map[graph.OpKind]bool{}
		for k := range curKinds {
			tk[k] = true
		}
		for _, o := range g.Task(t).Ops {
			tk[g.Op(o).Kind] = true
		}
		if !dev.Fits(minFG(tk)) {
			// close the segment, start a new one with just this task
			plan.N++
			curKinds = map[graph.OpKind]bool{}
			for _, o := range g.Task(t).Ops {
				curKinds[g.Op(o).Kind] = true
			}
			if !dev.Fits(minFG(curKinds)) {
				return nil, fmt.Errorf("sched: task %d alone exceeds device capacity", t)
			}
		} else {
			curKinds = tk
		}
		plan.Segment[t] = plan.N
	}
	plan.Comm = CommCost(g, plan.Segment)
	return plan, nil
}

// CommCost evaluates the paper's objective (eq. 14) for a task-to-
// segment assignment: for every task edge t1->t2 with seg(t1) <
// seg(t2), every boundary p in (seg(t1), seg(t2)] stores the edge's
// bandwidth, so the edge contributes Bandwidth * (seg(t2)-seg(t1)).
func CommCost(g *graph.Graph, segment []int) int {
	cost := 0
	for _, e := range g.TaskEdges() {
		if d := segment[e.To] - segment[e.From]; d > 0 {
			cost += e.Bandwidth * d
		}
	}
	return cost
}

// MemoryAt returns the scratch-memory demand at boundary p (data live
// across the cut between segments p-1 and p, p >= 2), the left side of
// eq. (3).
func MemoryAt(g *graph.Graph, segment []int, p int) int {
	m := 0
	for _, e := range g.TaskEdges() {
		if segment[e.From] < p && segment[e.To] >= p {
			m += e.Bandwidth
		}
	}
	return m
}

// HeuristicSchedule schedules every segment of plan with the list
// scheduler. Each segment uses a demand-aware unit subset: at least
// ceil(ops-of-kind / step-budget) units per kind when they fit, plus
// opportunistic extras for the busiest kinds. It fills plan.Steps and
// returns the per-op assignment with globally numbered steps (segment
// s starts after segment s-1 ends).
func HeuristicSchedule(g *graph.Graph, alloc *library.Allocation, dev library.Device, w *Windows, plan *SegmentPlan) (*Assignment, error) {
	global := &Assignment{
		Step: make([]int, g.NumOps()),
		Unit: make([]int, g.NumOps()),
	}
	for i := range global.Unit {
		global.Unit[i] = -1
	}
	plan.Steps = make([]int, plan.N)
	base := 0
	// optimistic per-segment step budget: the critical path (callers
	// with a latency relaxation have a little more; underestimating
	// only requests more parallel units, never fewer)
	budget := maxInt(w.CriticalPath, 1)
	for s := 1; s <= plan.N; s++ {
		var ops []int
		counts := map[graph.OpKind]int{}
		for _, t := range g.Tasks() {
			if plan.Segment[t.ID] != s {
				continue
			}
			for _, o := range t.Ops {
				ops = append(ops, o)
				counts[g.Op(o).Kind]++
			}
		}
		if len(ops) == 0 {
			continue
		}
		units, err := pickUnits(alloc, dev, counts, budget)
		if err != nil {
			return nil, fmt.Errorf("sched: segment %d: %w", s, err)
		}
		a, err := ListSchedule(g, alloc, w, ops, units)
		if err != nil {
			return nil, fmt.Errorf("sched: segment %d: %w", s, err)
		}
		for _, o := range ops {
			global.Step[o] = base + a.Step[o]
			global.Unit[o] = a.Unit[o]
		}
		plan.Steps[s-1] = a.Span
		base += a.Span
	}
	global.Span = base
	return global, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// pickUnits selects a subset of allocation units for a segment whose
// ops are counted per kind. It takes the cheapest unit per kind, grows
// the busiest kinds toward ceil(count/budget) parallel units, then
// fills leftover area in unit-ID order — all without exceeding the
// device capacity.
func pickUnits(alloc *library.Allocation, dev library.Device, counts map[graph.OpKind]int, budget int) ([]int, error) {
	if budget < 1 {
		budget = 1
	}
	chosen := map[int]bool{}
	area := 0
	serving := map[graph.OpKind]int{} // units able to run each kind
	addUnit := func(u int) {
		chosen[u] = true
		area += alloc.Unit(u).Type.FG
		for _, kind := range alloc.Unit(u).Type.Ops {
			serving[kind]++
		}
	}
	sorted := make([]graph.OpKind, 0, len(counts))
	for k := range counts {
		sorted = append(sorted, k)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// mandatory: cheapest unit per kind
	for _, k := range sorted {
		if serving[k] > 0 {
			continue
		}
		best, bestFG := -1, 0
		for _, u := range alloc.UnitsFor(k) {
			if chosen[u] {
				continue
			}
			if fg := alloc.Unit(u).Type.FG; best == -1 || fg < bestFG {
				best, bestFG = u, fg
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("no unit for kind %q", k)
		}
		addUnit(best)
	}
	if !dev.Fits(area) {
		return nil, fmt.Errorf("minimal unit set (%d FG) exceeds capacity", area)
	}
	// demand-driven growth: kinds needing more parallelism first
	for {
		bestKind := graph.OpKind("")
		bestDeficit := 0
		for _, k := range sorted {
			want := (counts[k] + budget - 1) / budget
			if d := want - serving[k]; d > bestDeficit {
				// only if another unit of this kind exists and fits
				for _, u := range alloc.UnitsFor(k) {
					if !chosen[u] && dev.Fits(area+alloc.Unit(u).Type.FG) {
						bestKind, bestDeficit = k, d
						break
					}
				}
			}
		}
		if bestDeficit == 0 {
			break
		}
		best, bestFG := -1, 0
		for _, u := range alloc.UnitsFor(bestKind) {
			if chosen[u] || !dev.Fits(area+alloc.Unit(u).Type.FG) {
				continue
			}
			if fg := alloc.Unit(u).Type.FG; best == -1 || fg < bestFG {
				best, bestFG = u, fg
			}
		}
		addUnit(best)
	}
	// opportunistic: remaining units in ID order while they fit
	for _, u := range alloc.Units() {
		if chosen[u.ID] {
			continue
		}
		if dev.Fits(area + u.Type.FG) {
			addUnit(u.ID)
		}
	}
	out := make([]int, 0, len(chosen))
	for u := range chosen {
		out = append(out, u)
	}
	sort.Ints(out)
	return out, nil
}
