package core

import (
	"slices"

	"repro/internal/graph"
)

// The step count refutes task assignments by counting instead of
// searching. A control step belongs to at most one partition (eq. 13),
// so the partitions share the step budget Win.MaxStep(L), and partition
// p must own at least as many steps as the larger of
//
//   - the longest chain of p's ops: along an op edge the successor
//     starts after its predecessor ends, so the ops of a chain issue in
//     distinct steps;
//   - the fewest steps in which a set of units that fits the device can
//     issue p's ops: the minimum, over such sets, of the largest
//     ⌈ops of kind k in p / units of the set serving k⌉, since a unit
//     issues at most one op per step.
//
// Both bounds hold under Multicycle too, where every op still takes at
// least one issue step. An assignment whose per-partition bounds sum
// past the budget has no schedule. These are the order-constrained
// packing bounds of Fekete, Köhler and Teich (arXiv cs/0308006). A
// partition's bound only grows as tasks join it, so the exact sweep's
// walk cuts a failing prefix with its whole subtree (stepCount is a
// sched.Cut), and exactSchedule refutes with it before it backtracks.

// stepTables holds the step count's read-only inputs. Model.stepTables
// builds them once, on first use, so a model that neither sweeps nor
// probes pays nothing for them.
type stepTables struct {
	order   []int   // tasks in topological order
	taskOps [][]int // each task's ops, in topological order
	taskOf  []int   // op -> task
	// taskKinds[t*nk+c] counts task t's ops of kind c (the kind indexes
	// of schedTables)
	taskKinds []int
	// sets[s*nk+c] is the number of units serving kind c in the s-th
	// listed unit set that fits the device. No listed set serves every
	// kind with at most as many units as another listed set does.
	sets []int
	nk   int
}

// stepTables returns the model's step-count tables, building them on
// the first call; steal workers may call it concurrently.
func (m *Model) stepTables() *stepTables {
	m.stepOnce.Do(func() {
		g, st := m.Inst.Graph, m.sched
		nt, no, nk := g.NumTasks(), g.NumOps(), len(st.minFG)
		ints := make([]int, nt+2*no+nt*nk)
		t := &stepTables{
			order:     ints[:nt:nt],
			taskOps:   make([][]int, nt),
			taskOf:    ints[nt : nt+no : nt+no],
			taskKinds: ints[nt+no : nt+no+nt*nk : nt+no+nt*nk],
			nk:        nk,
		}
		for task, rank := range m.topoRank {
			t.order[rank] = task
		}
		for i := range t.taskOf {
			t.taskOf[i] = g.Op(i).Task
			t.taskKinds[t.taskOf[i]*nk+st.kindOf[i]]++
		}
		// each task's ops in the scheduler's op order, which is
		// topological, carved from one array
		flat := ints[nt+no+nt*nk:]
		for task := range t.taskOps {
			n := len(g.Task(task).Ops)
			t.taskOps[task], flat = flat[:0:n], flat[n:]
		}
		for _, i := range st.order {
			t.taskOps[t.taskOf[i]] = append(t.taskOps[t.taskOf[i]], i)
		}
		t.sets = m.fittingSets()
		m.steps = t
	})
	return m.steps
}

// Bounds on the enumeration of fitting unit sets. Past either, one set
// serving each kind with every unit of the kind that fits the device on
// its own stands in for all of them: it serves each kind at least as
// well as any fitting set, so the count stays sound, only weaker.
const (
	maxSetNodes = 1 << 16 // partial per-type unit counts visited
	maxSets     = 64      // undominated sets kept
)

// fittingSets returns the per-kind unit counts of the unit sets that
// fit the device and that no other fitting set dominates, flat
// s*nk+kind. Units of one type are interchangeable, so the sets are
// enumerated as per-type unit counts, largest first; a set counts only
// if no type has a unit left that would still fit.
func (m *Model) fittingSets() []int {
	dev, st := m.Inst.Device, m.sched
	nu, nk := len(st.fg), len(st.minFG)
	// types are numbered by their lowest unit ID; per type its FG, its
	// unit count, the units taken into the current set, and the kinds
	// it serves (flat type*nk+kind)
	ints := make([]int, 4*nu+nk)
	typeOf, fg, count, take, units := ints[:nu], ints[nu:2*nu], ints[2*nu:3*nu], ints[3*nu:4*nu], ints[4*nu:]
	serves := make([]bool, nu*nk)
	ntypes := 0
	for k := range typeOf {
		if len(st.twins[k]) > 0 {
			typeOf[k] = typeOf[st.twins[k][0]]
		} else {
			typeOf[k], fg[ntypes] = ntypes, st.fg[k]
			ntypes++
		}
		count[typeOf[k]]++
	}
	for c, us := range st.kindUnits {
		for _, u := range us {
			serves[typeOf[u]*nk+c] = true
		}
	}
	for ty := 0; ty < ntypes; ty++ {
		if !slices.Contains(serves[ty*nk:(ty+1)*nk], true) {
			count[ty] = 0 // it would only take area
		}
	}
	// sum adds each type's n(ty) units to the kinds it serves
	sum := func(n func(ty int) int) {
		clear(units)
		for ty := 0; ty < ntypes; ty++ {
			for c := range units {
				if serves[ty*nk+c] {
					units[c] += n(ty)
				}
			}
		}
	}
	sets := make([]int, 0, 4*nk)
	nodes := 0
	var rec func(ty, used int) bool
	rec = func(ty, used int) bool {
		if nodes++; nodes > maxSetNodes || len(sets) > maxSets*nk {
			return false
		}
		if ty == ntypes {
			for u := 0; u < ntypes; u++ {
				if take[u] < count[u] && dev.Fits(used+fg[u]) {
					return true // not maximal
				}
			}
			sum(func(ty int) int { return take[ty] })
			sets = addUndominated(sets, units)
			return true
		}
		for n := count[ty]; n >= 0; n-- {
			if dev.Fits(used + n*fg[ty]) {
				take[ty] = n
				if !rec(ty+1, used+n*fg[ty]) {
					return false
				}
			}
		}
		return true
	}
	if rec(0, 0) && len(sets) <= maxSets*nk {
		return sets
	}
	sum(func(ty int) int {
		n := count[ty]
		for n > 0 && !dev.Fits(n*fg[ty]) {
			n--
		}
		return n
	})
	return append(sets[:0], units...)
}

// addUndominated adds the per-kind unit counts units to sets unless a
// listed set serves every kind at least as well, and drops the listed
// sets that units serves at least as well.
func addUndominated(sets, units []int) []int {
	nk := len(units)
	for s := 0; s < len(sets); s += nk {
		if covers(sets[s:s+nk], units) {
			return sets
		}
	}
	kept := sets[:0]
	for s := 0; s < len(sets); s += nk {
		if set := sets[s : s+nk]; !covers(units, set) {
			kept = append(kept, set...)
		}
	}
	return append(kept, units...)
}

// covers reports whether a serves every kind with at least as many
// units as b.
func covers(a, b []int) bool {
	for c := range a {
		if a[c] < b[c] {
			return false
		}
	}
	return true
}

// unitSteps is the fewest steps in which one of the listed unit sets
// issues need[c] ops of each kind c, or more than budget when none does
// within it.
func (t *stepTables) unitSteps(need []int, budget int) int {
	best := budget + 1
	for s := 0; s < len(t.sets); s += t.nk {
		units := t.sets[s : s+t.nk]
		worst := 0
		for c, n := range need {
			if n == 0 {
				continue
			}
			if units[c] == 0 {
				worst = best
				break
			}
			if steps := (n + units[c] - 1) / units[c]; steps > worst {
				if worst = steps; worst >= best {
					break
				}
			}
		}
		best = min(best, worst)
	}
	return best
}

// stepCount is the step count of an assignment prefix, kept up to date
// as tasks join and leave in topological order; it is the sweep's
// sched.Cut. One count serves one walk or one exactSchedule call at a
// time, and it allocates only in init.
type stepCount struct {
	g       *graph.Graph
	tab     *stepTables
	budget  int
	seg     []int // task -> partition, 0 = not joined
	chain   []int // op -> most ops of its partition on a path ending there
	count   []int // (partition, kind) -> ops, flat p*nk+kind
	longest []int // partition -> longest chain of its ops
	need    []int // partition -> steps it must own
	total   int   // sum of need
	undo    []int // per joined task: its partition's previous longest and need
}

// init readies c for an empty prefix on the model.
func (c *stepCount) init(m *Model) {
	c.g, c.tab, c.budget = m.Inst.Graph, m.stepTables(), m.Win.MaxStep(m.Opt.L)
	nt, no, np := c.g.NumTasks(), c.g.NumOps(), m.N+1
	ints := make([]int, nt+no+np*c.tab.nk+2*np+2*nt)
	carve := func(n int) []int {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	c.seg, c.chain, c.count = carve(nt), carve(no), carve(np*c.tab.nk)
	c.longest, c.need = carve(np), carve(np)
	c.undo = ints[:0]
}

// Join adds task t in partition p to the prefix and reports whether the
// partitions' step bounds still fit the budget. Every task with an op
// edge into t must have joined already.
func (c *stepCount) Join(t, p int) bool {
	g, tab, nk := c.g, c.tab, c.tab.nk
	c.undo = append(c.undo, c.longest[p], c.need[p])
	c.seg[t] = p
	for _, i := range tab.taskOps[t] {
		n := 1
		for _, pr := range g.OpPred(i) {
			if c.seg[tab.taskOf[pr]] == p && c.chain[pr] >= n {
				n = c.chain[pr] + 1
			}
		}
		c.chain[i] = n
		c.longest[p] = max(c.longest[p], n)
	}
	row := c.count[p*nk : (p+1)*nk]
	for k, n := range tab.taskKinds[t*nk : (t+1)*nk] {
		row[k] += n
	}
	need := c.longest[p] // 0 while the partition holds no op
	if need > 0 {
		need = max(need, tab.unitSteps(row, c.budget))
	}
	c.total += need - c.need[p]
	c.need[p] = need
	return c.total <= c.budget
}

// Leave undoes the latest Join, that of task t in partition p.
func (c *stepCount) Leave(t, p int) {
	nk, top := c.tab.nk, len(c.undo)-2
	c.total -= c.need[p] - c.undo[top+1]
	c.longest[p], c.need[p] = c.undo[top], c.undo[top+1]
	c.undo = c.undo[:top]
	row := c.count[p*nk : (p+1)*nk]
	for k, n := range c.tab.taskKinds[t*nk : (t+1)*nk] {
		row[k] -= n
	}
	c.seg[t] = 0
}

// stepsFit reports whether the step count admits the whole assignment
// part, whose task edges must all point forward.
func (m *Model) stepsFit(part []int) bool {
	var c stepCount
	c.init(m)
	for _, t := range c.tab.order {
		if !c.Join(t, part[t]) {
			return false
		}
	}
	return true
}
