package sched

import (
	"cmp"
	"fmt"
	"slices"

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

// ListScratch holds the tables ListSchedule and HeuristicSchedule fill
// on every call, so that a caller scheduling many times reuses them
// instead of allocating them per call. The zero value is ready to use.
// A ListScratch serves one call at a time: concurrent callers each need
// their own. Results returned through a ListScratch alias it and stay
// valid only until its next use.
type ListScratch struct {
	// ListSchedule: per op of the graph, per unit, and the ready list
	inSet              []bool
	compat, preds      [][]int
	compatAll, predAll []int
	done               []int
	busyUntil          []int
	ready              []int
	seg                Assignment
	// HeuristicSchedule: the global schedule, the plan's step counts,
	// the segment's ops, and pickUnits' state
	global  Assignment
	steps   []int
	ops     []int
	kinds   []graph.OpKind // the segment's op kinds, ascending
	counts  []int          // ops per kind
	serving []int          // chosen units able to run each kind
	chosen  []bool         // per unit
	units   []int          // chosen unit IDs, ascending
}

// zeroed returns s with length n and every element zero, reusing its
// array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ListSchedule performs resource-constrained list scheduling of the
// operations in ops (IDs into g) on the FU instances units (IDs into
// alloc). Priority is least-ALAP-first using the provided windows.
// Non-pipelined multicycle units block for their full latency;
// pipelined units accept one operation per step. It returns an error
// when some operation has no compatible unit. With a non-nil sc the
// tables and the returned Assignment live in sc; with nil they are
// allocated for the call.
func ListSchedule(g *graph.Graph, alloc *library.Allocation, w *Windows, ops []int, units []int, sc *ListScratch) (*Assignment, error) {
	if sc == nil {
		sc = &ListScratch{}
	}
	no := g.NumOps()
	inSet := zeroed(sc.inSet, no)
	sc.inSet = inSet
	for _, o := range ops {
		inSet[o] = true
	}
	a := &sc.seg
	a.Step, a.Unit, a.Span = zeroed(a.Step, no), zeroed(a.Unit, no), 0
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
	compat, preds := zeroed(sc.compat, no), zeroed(sc.preds, no)
	sc.compat, sc.preds = compat, preds
	// the shared arrays never move while the lists are carved from them
	compatAll := zeroed(sc.compatAll, len(ops)*len(units))[:0]
	predAll := zeroed(sc.predAll, npred)[:0]
	sc.compatAll, sc.predAll = compatAll, predAll
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
	busyUntil := zeroed(sc.busyUntil, alloc.NumUnits())
	done := zeroed(sc.done, no) // op -> finish step (inclusive)
	sc.busyUntil, sc.done = busyUntil, done
	remaining := len(ops)
	limit := len(ops)*maxDur(w, ops) + w.CriticalPath + 1
	ready := sc.ready[:0]
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
	sc.ready = ready
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
// s starts after segment s-1 ends). With a non-nil sc every table, the
// returned Assignment and plan.Steps live in sc; with nil they are
// allocated for the call.
func HeuristicSchedule(g *graph.Graph, alloc *library.Allocation, dev library.Device, w *Windows, plan *SegmentPlan, sc *ListScratch) (*Assignment, error) {
	if sc == nil {
		sc = &ListScratch{}
	}
	global := &sc.global
	global.Step, global.Unit = zeroed(global.Step, g.NumOps()), zeroed(global.Unit, g.NumOps())
	for i := range global.Unit {
		global.Unit[i] = -1
	}
	sc.steps = zeroed(sc.steps, plan.N)
	plan.Steps = sc.steps
	base := 0
	// optimistic per-segment step budget: the critical path (callers
	// with a latency relaxation have a little more; underestimating
	// only requests more parallel units, never fewer)
	budget := maxInt(w.CriticalPath, 1)
	for s := 1; s <= plan.N; s++ {
		ops := sc.ops[:0]
		for _, t := range g.Tasks() {
			if plan.Segment[t.ID] == s {
				ops = append(ops, t.Ops...)
			}
		}
		sc.ops = ops
		if len(ops) == 0 {
			continue
		}
		units, err := sc.pickUnits(g, alloc, dev, ops, budget)
		if err != nil {
			return nil, fmt.Errorf("sched: segment %d: %w", s, err)
		}
		a, err := ListSchedule(g, alloc, w, ops, units, sc)
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

// pickUnits selects a subset of allocation units for a segment's ops,
// counted per kind. It takes the cheapest unit per kind, grows the
// busiest kinds toward ceil(count/budget) parallel units, then fills
// leftover area in unit-ID order — all without exceeding the device
// capacity. Kinds are visited in ascending order and a kind's units in
// ID order, ties going to the first. The result lives in sc.units.
func (sc *ListScratch) pickUnits(g *graph.Graph, alloc *library.Allocation, dev library.Device, ops []int, budget int) ([]int, error) {
	if budget < 1 {
		budget = 1
	}
	// the segment's kinds, ascending, with their op counts
	kinds, counts := sc.kinds[:0], sc.counts[:0]
	for _, o := range ops {
		kind := g.Op(o).Kind
		c, ok := slices.BinarySearch(kinds, kind)
		if !ok {
			kinds = slices.Insert(kinds, c, kind)
			counts = slices.Insert(counts, c, 0)
		}
		counts[c]++
	}
	serving := zeroed(sc.serving, len(kinds)) // chosen units able to run each kind
	chosen := zeroed(sc.chosen, alloc.NumUnits())
	sc.kinds, sc.counts, sc.serving, sc.chosen = kinds, counts, serving, chosen
	area := 0
	addUnit := func(u int) {
		chosen[u] = true
		ft := alloc.Unit(u).Type
		area += ft.FG
		for _, kind := range ft.Ops {
			if c, ok := slices.BinarySearch(kinds, kind); ok {
				serving[c]++
			}
		}
	}
	// cheapest returns the cheapest unused unit able to run kind whose
	// area still fits when fit is set, or -1.
	cheapest := func(kind graph.OpKind, fit bool) int {
		best, bestFG := -1, 0
		for _, u := range alloc.Units() {
			if chosen[u.ID] || !u.Type.CanExecute(kind) || fit && !dev.Fits(area+u.Type.FG) {
				continue
			}
			if best == -1 || u.Type.FG < bestFG {
				best, bestFG = u.ID, u.Type.FG
			}
		}
		return best
	}
	// mandatory: cheapest unit per kind
	for c, kind := range kinds {
		if serving[c] > 0 {
			continue
		}
		best := cheapest(kind, false)
		if best == -1 {
			return nil, fmt.Errorf("no unit for kind %q", kind)
		}
		addUnit(best)
	}
	if !dev.Fits(area) {
		return nil, fmt.Errorf("minimal unit set (%d FG) exceeds capacity", area)
	}
	// demand-driven growth: kinds needing more parallelism first
	for {
		bestKind, bestDeficit := -1, 0
		for c, kind := range kinds {
			want := (counts[c] + budget - 1) / budget
			// only if another unit of this kind exists and fits
			if d := want - serving[c]; d > bestDeficit && cheapest(kind, true) != -1 {
				bestKind, bestDeficit = c, d
			}
		}
		if bestDeficit == 0 {
			break
		}
		addUnit(cheapest(kinds[bestKind], true))
	}
	// opportunistic: remaining units in ID order while they fit
	for _, u := range alloc.Units() {
		if !chosen[u.ID] && dev.Fits(area+u.Type.FG) {
			addUnit(u.ID)
		}
	}
	out := sc.units[:0]
	for u, ok := range chosen {
		if ok {
			out = append(out, u)
		}
	}
	sc.units = out
	return out, nil
}
