package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/sched"
)

// The node probe is the reproduction's main engineering addition on
// top of the paper's algorithm. At every branch-and-bound node whose
// y_tp values are integral, it tries to solve the remaining
// scheduling/binding subproblem exactly by budgeted backtracking:
//
//   - a schedule found yields an integer-feasible point whose
//     objective equals the node's LP bound (the objective depends only
//     on y), so the subtree is fathomed with a new incumbent;
//   - an exhausted search with every y fixed by branching proves the
//     subtree empty, so it is pruned;
//   - a budget overrun falls back to ordinary x-branching.
//
// This keeps the search effectively over task assignments and avoids
// the x-space thrashing a pure LP-driven dive suffers on instances
// with wide mobility windows. Disable with Options.DisableProbe for
// paper-faithful runtime comparisons.

type schedStatus int

const (
	schedFound schedStatus = iota
	schedInfeasible
	schedBudget
)

// Budgets for the exact scheduler: a cheap pass at every probed node,
// and a moderately deeper pass when the assignment is fully pinned so
// an exhaustion proof can prune the subtree. Budgets stay small on
// purpose: when the exact search is inconclusive, the LP-driven
// branching usually proves infeasibility faster than a deep
// backtracking search would.
const (
	probeBudgetQuick = 150_000
	probeBudgetFull  = 1_500_000
)

type probeEntry struct {
	status schedStatus
	full   bool // proved with the full budget
	step   []int
	unit   []int
}

// probe implements the milp.Options.Probe contract.
func (m *Model) probe(x []float64, bound func(int) (float64, float64)) ([]float64, bool) {
	part, ok := m.integralAssignment(x)
	if !ok {
		return nil, false
	}
	pinned := m.allYFixed(bound)
	ent := m.scheduleFor(part, pinned, true)
	switch ent.status {
	case schedFound:
		return m.vectorFrom(x, part, ent.step, ent.unit), false
	case schedInfeasible:
		return nil, pinned
	default:
		return nil, false
	}
}

// integralAssignment reads the task assignment from integral y values.
func (m *Model) integralAssignment(x []float64) ([]int, bool) {
	nt := m.Inst.Graph.NumTasks()
	part := make([]int, nt)
	for t := 0; t < nt; t++ {
		for p := 1; p <= m.N; p++ {
			v := x[m.y(t, p)]
			if v > intFracTol && v < 1-intFracTol {
				return nil, false
			}
			if v >= 1-intFracTol {
				if part[t] != 0 {
					return nil, false
				}
				part[t] = p
			}
		}
		if part[t] == 0 {
			return nil, false
		}
	}
	return part, true
}

const intFracTol = 1e-6

// allYFixed reports whether the node's bounds pin every task's
// assignment: either some y_tp has a lower bound of 1 (eq. (1) then
// forces the rest to 0), or all but one y_tp have an upper bound of 0.
// Only then does "this assignment is infeasible" prove the whole
// subtree empty.
func (m *Model) allYFixed(bound func(int) (float64, float64)) bool {
	for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
		pinned := false
		free := 0
		for p := 1; p <= m.N; p++ {
			lo, hi := bound(m.y(t, p))
			if lo >= 1-intFracTol {
				pinned = true
				break
			}
			if hi > intFracTol {
				free++
			}
		}
		if !pinned && free > 1 {
			return false
		}
	}
	return true
}

// scheduleFor memoizes exact scheduling per task assignment. deep
// repeats an inconclusive quick search with the full budget. witness
// tries the list scheduler first, whose schedule within the step budget
// is already a valid one; the exact sweep, which list-schedules its
// leaves itself, passes false. Steal workers probe concurrently, so
// each witness list-schedules with fresh tables. A search the solve's
// context stops is cached as budget-inconclusive.
func (m *Model) scheduleFor(part []int, deep, witness bool) probeEntry {
	key := fmt.Sprint(part)
	if ent, ok := m.lookupProbe(key); ok {
		if ent.status != schedBudget || ent.full || !deep {
			return ent
		}
	}
	if witness {
		if step, unit, ok := m.listWitness(part, nil); ok {
			ent := probeEntry{status: schedFound, full: true, step: step, unit: unit}
			m.cacheProbe(key, ent)
			return ent
		}
	}
	budget := probeBudgetQuick
	if deep {
		budget = probeBudgetFull
	}
	ent := m.exactSchedule(part, budget)
	ent.full = deep && ent.status != schedBudget
	m.cacheProbe(key, ent)
	return ent
}

func (m *Model) lookupProbe(key string) (probeEntry, bool) {
	m.probeMu.Lock()
	ent, ok := m.probeCache[key]
	m.probeMu.Unlock()
	return ent, ok
}

// maxProbeEntries bounds the probe cache; assignments past it are
// scheduled again when they recur.
const maxProbeEntries = 200_000

func (m *Model) cacheProbe(key string, ent probeEntry) {
	m.probeMu.Lock()
	if m.probeCache == nil {
		m.probeCache = map[string]probeEntry{}
	}
	if len(m.probeCache) < maxProbeEntries {
		m.probeCache[key] = ent
	}
	m.probeMu.Unlock()
}

// listWitness list-schedules the assignment with the tables in sc (nil
// = fresh ones); success within the step budget yields a concrete
// schedule usable as a feasible witness. The schedule lives in sc, so
// it stays valid until sc's next use.
func (m *Model) listWitness(part []int, sc *sched.ListScratch) (step, unit []int, ok bool) {
	if m.Opt.Multicycle {
		return nil, nil, false // the list scheduler assumes unit latency
	}
	plan := &sched.SegmentPlan{Segment: part, N: m.N}
	asg, err := sched.HeuristicSchedule(m.Inst.Graph, m.Inst.Alloc, m.Inst.Device, m.Win, plan, sc)
	if err != nil || asg.Span > m.Win.MaxStep(m.Opt.L) {
		return nil, nil, false
	}
	return asg.Step, asg.Unit, true
}

// schedTables holds the exact scheduler's read-only inputs in dense
// form, built once per model: operation kinds become small integers
// and every per-unit and per-kind fact the search reads sits in a
// slice.
type schedTables struct {
	// order lists the ops most-constrained-first: ALAP ascending, which
	// is still a topological order (a predecessor's ALAP is strictly
	// below its successor's) and makes the backtracking fail early
	// instead of deep.
	order  []int
	kindOf []int // op -> kind index
	// kindUnits[kind] lists the units able to execute the kind, by ID;
	// minFG[kind] is the cheapest of them.
	kindUnits [][]int
	minFG     []int
	// per unit: FG cost, latency under the active mode, pipelining, and
	// the lower-ID units of the same type
	fg        []int
	lat       []int
	pipelined []bool
	twins     [][]int
}

// buildSchedTables fills m.sched; the instance was validated, so its
// operation graph is acyclic.
func (m *Model) buildSchedTables() {
	g, alloc := m.Inst.Graph, m.Inst.Alloc
	order, _ := g.TopoOps()
	sort.SliceStable(order, func(a, b int) bool {
		return m.Win.ALAP[order[a]] < m.Win.ALAP[order[b]]
	})
	kinds := g.OpKinds()
	index := make(map[graph.OpKind]int, len(kinds))
	for c, kind := range kinds {
		index[kind] = c
	}
	nu := alloc.NumUnits()
	t := &schedTables{
		order:     order,
		kindOf:    make([]int, g.NumOps()),
		kindUnits: make([][]int, len(kinds)),
		minFG:     make([]int, len(kinds)),
		fg:        make([]int, nu),
		lat:       make([]int, nu),
		pipelined: make([]bool, nu),
		twins:     make([][]int, nu),
	}
	for i := range t.kindOf {
		t.kindOf[i] = index[g.Op(i).Kind]
	}
	for k := 0; k < nu; k++ {
		typ := alloc.Unit(k).Type
		t.fg[k], t.lat[k], t.pipelined[k] = typ.FG, m.latOf(k), typ.Pipelined
		for u := 0; u < k; u++ {
			if alloc.Unit(u).Type.Name == typ.Name {
				t.twins[k] = append(t.twins[k], u)
			}
		}
	}
	for c, kind := range kinds {
		t.kindUnits[c] = alloc.UnitsFor(kind)
		for _, u := range t.kindUnits[c] {
			if t.minFG[c] == 0 || t.fg[u] < t.minFG[c] {
				t.minFG[c] = t.fg[u]
			}
		}
	}
	m.sched = t
}

// exactSchedule decides whether the task assignment part has a
// schedule. It refutes by counting first: part must keep every task
// edge forward, fit the scratch memory (eq. 3) and pass the step count
// (stepCount). Only an assignment that passes all three goes to
// searchSchedule's backtracking, which gives up with schedBudget when
// the step budget runs out or the solve's context is done.
func (m *Model) exactSchedule(part []int, budget int) probeEntry {
	g := m.Inst.Graph
	for _, e := range g.TaskEdges() {
		if part[e.From] > part[e.To] {
			return probeEntry{status: schedInfeasible}
		}
	}
	if !sched.MemoryFits(g, part, m.N, m.Inst.Device.ScratchMem) || !m.stepsFit(part) {
		return probeEntry{status: schedInfeasible}
	}
	return m.searchSchedule(part, budget)
}

// searchSchedule backtracks over (step, unit) placements for a fixed
// task assignment, honoring mobility windows, step ownership, FU
// occupancy (incl. multicycle/pipelined) and per-partition area.
func (m *Model) searchSchedule(part []int, budget int) probeEntry {
	s := newExactSearch(m, part, budget)
	if st := s.place(0); st != schedFound {
		return probeEntry{status: st}
	}
	return probeEntry{status: schedFound, step: s.step, unit: s.unit}
}

// exactSearch is the mutable state of one exactSchedule call. Steal
// workers probe one model concurrently, so every call owns its own.
// Two-dimensional tables are flattened: (step, unit) as step*nu+unit,
// (partition, unit) as p*nu+unit and (partition, kind) as p*nk+kind.
type exactSearch struct {
	m       *Model
	t       *schedTables
	part    []int
	budget  int
	maxStep int
	nu, nk  int

	step, unit []int  // the schedule under construction, per op
	endOf      []int  // last step each placed op occupies
	stepOwner  []int  // step -> partition owning it, 0 = free
	busy       []bool // (step, unit) -> occupied
	usedSlots  []int  // unit -> occupied slots
	usedFG     []int  // partition -> FG of the units opened there
	opened     []bool // (partition, unit) -> unit opened there
	// kind-capacity pruning state: unplaced ops per kind, and per
	// partition and kind. Capacity is overcounted (units are counted
	// even for partitions they cannot join), which keeps the prune
	// sound.
	remaining   []int
	remainingPK []int
	// owned is the undo stack of steps placements claimed; top is its
	// height.
	owned []int
	top   int
}

func newExactSearch(m *Model, part []int, budget int) *exactSearch {
	g, t := m.Inst.Graph, m.sched
	no, nu, nk := g.NumOps(), len(t.fg), len(t.minFG)
	maxStep := m.Win.MaxStep(m.Opt.L)
	s := &exactSearch{
		m: m, t: t, part: part, budget: budget,
		maxStep: maxStep, nu: nu, nk: nk,
		step: make([]int, no),
		unit: make([]int, no),
	}
	// one backing array for the int state, one for the flags
	ints := make([]int, no+(maxStep+2)+nu+(m.N+1)+nk+(m.N+1)*nk+(maxStep+1))
	carve := func(n int) []int {
		c := ints[:n:n]
		ints = ints[n:]
		return c
	}
	s.endOf = carve(no)
	s.stepOwner = carve(maxStep + 2)
	s.usedSlots = carve(nu)
	s.usedFG = carve(m.N + 1)
	s.remaining = carve(nk)
	s.remainingPK = carve((m.N + 1) * nk)
	s.owned = carve(maxStep + 1)
	flags := make([]bool, (maxStep+1)*nu+(m.N+1)*nu)
	s.busy, s.opened = flags[:(maxStep+1)*nu], flags[(maxStep+1)*nu:]
	for i := 0; i < no; i++ {
		c := t.kindOf[i]
		s.remaining[c]++
		s.remainingPK[part[g.Op(i).Task]*nk+c]++
	}
	return s
}

// kindFits is the search's capacity prune: every kind still to place
// must fit the free slots of its units, and every kind a partition
// still needs must have a serving unit there or room to open one.
func (s *exactSearch) kindFits() bool {
	t, dev := s.t, s.m.Inst.Device
	// global slot capacity per kind (overcounted, hence sound)
	for c, need := range s.remaining {
		if need == 0 {
			continue
		}
		free := 0
		for _, u := range t.kindUnits[c] {
			free += s.maxStep - s.usedSlots[u]
		}
		if free < need {
			return false
		}
	}
	for p := 1; p <= s.m.N; p++ {
		for c, need := range s.remainingPK[p*s.nk : (p+1)*s.nk] {
			if need == 0 {
				continue
			}
			served := false
			for _, u := range t.kindUnits[c] {
				if s.opened[p*s.nu+u] {
					served = true
					break
				}
			}
			if !served && !dev.Fits(s.usedFG[p]+t.minFG[c]) {
				return false
			}
		}
	}
	return true
}

// hasUnusedTwin reports whether a lower-ID unit of the same type as k
// is still completely unused — in that case opening k first would be a
// symmetric duplicate of opening the twin.
func (s *exactSearch) hasUnusedTwin(k int) bool {
	for _, u := range s.t.twins[k] {
		if s.usedSlots[u] == 0 {
			return true
		}
	}
	return false
}

// place schedules the n-th op of the order and everything after it,
// trying start steps ascending and units by ID, and undoes each
// placement that leads nowhere.
func (s *exactSearch) place(n int) schedStatus {
	if n == len(s.step) {
		return schedFound
	}
	if !s.kindFits() {
		return schedInfeasible
	}
	m, t, nu := s.m, s.t, s.nu
	g, dev := m.Inst.Graph, m.Inst.Device
	i := t.order[n]
	p := s.part[g.Op(i).Task]
	c := t.kindOf[i]
	lo := m.Win.ASAP[i]
	for _, pr := range g.OpPred(i) {
		if s.endOf[pr]+1 > lo {
			lo = s.endOf[pr] + 1
		}
	}
	for j := lo; j <= m.Win.ALAP[i]+m.Opt.L; j++ {
		for _, k := range m.fu[i] {
			// symmetry breaking: identical units are interchangeable
			// (same type everywhere in the model), so only the
			// lowest-ID unused unit of a type may be "opened"
			if s.usedSlots[k] == 0 && s.hasUnusedTwin(k) {
				continue
			}
			lat := t.lat[k]
			if j+lat-1 > s.maxStep {
				continue
			}
			if s.budget--; s.budget <= 0 {
				return schedBudget
			}
			if s.budget%4096 == 0 && m.cancelled() {
				// a deep backtracking run must not outlive the solve
				return schedBudget
			}
			ownOK := true
			for jj := j; jj <= j+lat-1; jj++ {
				if s.stepOwner[jj] != 0 && s.stepOwner[jj] != p {
					ownOK = false
					break
				}
			}
			if !ownOK {
				continue
			}
			occLo, occHi := j, j+lat-1
			if t.pipelined[k] {
				occHi = j // issue slot only
			}
			conflict := false
			for jj := occLo; jj <= occHi; jj++ {
				if s.busy[jj*nu+k] {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			newUnit := !s.opened[p*nu+k]
			if newUnit && !dev.Fits(s.usedFG[p]+t.fg[k]) {
				continue
			}
			// place
			s.step[i], s.unit[i], s.endOf[i] = j, k, j+lat-1
			s.remaining[c]--
			s.remainingPK[p*s.nk+c]--
			s.usedSlots[k] += occHi - occLo + 1
			mark := s.top
			for jj := j; jj <= j+lat-1; jj++ {
				if s.stepOwner[jj] == 0 {
					s.stepOwner[jj] = p
					s.owned[s.top] = jj
					s.top++
				}
			}
			for jj := occLo; jj <= occHi; jj++ {
				s.busy[jj*nu+k] = true
			}
			if newUnit {
				s.opened[p*nu+k] = true
				s.usedFG[p] += t.fg[k]
			}
			st := s.place(n + 1)
			// undo
			s.remaining[c]++
			s.remainingPK[p*s.nk+c]++
			s.usedSlots[k] -= occHi - occLo + 1
			if newUnit {
				s.opened[p*nu+k] = false
				s.usedFG[p] -= t.fg[k]
			}
			for jj := occLo; jj <= occHi; jj++ {
				s.busy[jj*nu+k] = false
			}
			for ; s.top > mark; s.top-- {
				s.stepOwner[s.owned[s.top-1]] = 0
			}
			if st != schedInfeasible {
				return st
			}
		}
	}
	return schedInfeasible
}

// vectorFrom assembles a full solution vector from an assignment and
// an exact schedule, deriving every auxiliary variable.
func (m *Model) vectorFrom(x []float64, part []int, step, unit []int) []float64 {
	xc := append([]float64(nil), x...)
	for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
		for p := 1; p <= m.N; p++ {
			if part[t] == p {
				xc[m.y(t, p)] = 1
			} else {
				xc[m.y(t, p)] = 0
			}
		}
	}
	for _, col := range m.tierX {
		xc[col] = 0
	}
	for i := 0; i < m.Inst.Graph.NumOps(); i++ {
		col := m.x(i, step[i], unit[i])
		if col < 0 {
			return nil // schedule outside the model's windows: decline
		}
		xc[col] = 1
	}
	xc = m.complete(xc)
	if xc == nil {
		return nil
	}
	// guard against drift: the point must really be integral
	for _, col := range m.intVars {
		if f := xc[col] - math.Floor(xc[col]); f > intFracTol && f < 1-intFracTol {
			return nil
		}
	}
	return xc
}

// paperBranch implements the paper's variable-selection heuristic
// (fractional y in topological priority order with the 1-branch first,
// then u, then x) with one refinement: when the LP's y values are
// integral and the probe has already proven that assignment
// unschedulable, the assignment is pinned one task at a time so the
// probe's exhaustion proof can prune the subtree instead of the search
// escaping into the u/x tiers.
func (m *Model) paperBranch(x []float64, bound func(int) (float64, float64)) (int, bool) {
	for _, col := range m.tierY {
		if isFracVal(x[col]) {
			return col, true
		}
	}
	if !m.Opt.DisableProbe {
		if part, ok := m.integralAssignment(x); ok {
			if ent, hit := m.lookupProbe(fmt.Sprint(part)); hit && ent.status != schedFound {
				// the assignment is proven unschedulable (pin so the
				// exhaustion proof prunes) or inconclusive (pin so the
				// fallback x-search stays confined to this assignment)
				for _, col := range m.tierY {
					if x[col] >= 1-intFracTol {
						if lo, hi := bound(col); hi-lo > intFracTol {
							return col, true
						}
					}
				}
			}
		}
	}
	for _, col := range m.tierU {
		if isFracVal(x[col]) {
			return col, true
		}
	}
	for _, col := range m.tierX {
		if isFracVal(x[col]) {
			return col, true
		}
	}
	return -1, true
}

func isFracVal(v float64) bool {
	f := v - math.Floor(v)
	return f > intFracTol && f < 1-intFracTol
}
