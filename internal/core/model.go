package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/lp"
	"repro/internal/sched"
)

// Model is the generated mixed 0-1 linear program for an instance,
// with maps from the paper's indexed decision variables to columns.
type Model struct {
	Inst Instance
	Opt  Options
	Win  *sched.Windows
	P    *lp.Problem
	// N is the resolved number of partitions.
	N int

	// Y maps (t, p) to the column of y_tp.
	Y map[[2]int]int
	// X maps (i, j, k) to the column of x_ijk.
	X map[[3]int]int
	// O maps (t, k) to the column of o_tk.
	O map[[2]int]int
	// U maps (p, k) to the column of u_pk.
	U map[[2]int]int
	// C maps (t, j) to the column of c_tj.
	C map[[2]int]int
	// Z maps (p, t, k) to the column of z_ptk.
	Z map[[3]int]int
	// W maps (p, t1, t2) to the column of w_p,t1,t2.
	W map[[3]int]int
	// Prod maps (t1, t2, p1, p2) to per-product columns (WPerProduct).
	Prod map[[4]int]int

	intVars []int
	tierY   []int // paper branching tier 1, in (topo-priority, p) order
	tierU   []int // tier 2
	tierX   []int // tier 3
	tierR   []int // remaining integral columns

	// fu(i): compatible unit IDs per op; cs(i): candidate start steps.
	fu [][]int
	cs [][]int
	// occ lists, for every x column, the control steps it occupies.
	occ map[int][]int
	// oPairs[t] lists unit IDs k with an o_tk variable, ascending.
	oPairs [][]int
	// cSteps[t] lists steps j with a c_tj variable, ascending.
	cSteps [][]int
	// topoRank[t] is the branching priority of task t (0 = highest).
	topoRank []int
	// stats snapshots the generated model size before any presolve.
	stats lp.Stats
	// presolved / presolveInfeasible record the one-shot outcome of
	// ApplyPresolve so SolveContext and the delta layer can both
	// trigger it without running the passes twice.
	presolved          bool
	presolveInfeasible bool
	// warm holds re-solve artifacts installed with SetWarm (nil for a
	// cold solve).
	warm *Warm
	// probeCache memoizes exact-schedule results per task assignment.
	// Guarded by probeMu: under Options.Search.Parallelism > 1 every
	// branch-and-bound worker probes (and branches) concurrently.
	// Concurrent misses may duplicate an exact-schedule run for the same
	// assignment; the cache stays consistent and the extra work is
	// bounded by the worker count.
	probeMu    sync.Mutex
	probeCache map[string]probeEntry
	// ctx is the cancellation context of the running SolveContext,
	// polled by the exact sweep and the scheduling probes; nil (never
	// cancelled) outside a solve.
	ctx context.Context
}

// Build generates the ILP model for the instance under the options.
// When opt.N is zero, the segment-count estimate of the list-scheduling
// heuristic is used, mirroring the paper's flow (Figure 2).
func Build(inst Instance, opt Options) (*Model, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.N == 0 {
		plan, err := sched.EstimateSegments(inst.Graph, inst.Alloc, inst.Device)
		if err != nil {
			return nil, fmt.Errorf("core: estimating N: %w", err)
		}
		opt.N = plan.N
	}
	if opt.N < 1 {
		return nil, fmt.Errorf("core: N = %d", opt.N)
	}
	dur := sched.UnitDuration
	if opt.Multicycle {
		dur = minLatencyDuration(inst)
	}
	win, err := sched.ComputeWindows(inst.Graph, dur)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Inst: inst, Opt: opt, Win: win, N: opt.N,
		P:    &lp.Problem{},
		Y:    map[[2]int]int{},
		X:    map[[3]int]int{},
		O:    map[[2]int]int{},
		U:    map[[2]int]int{},
		C:    map[[2]int]int{},
		Z:    map[[3]int]int{},
		W:    map[[3]int]int{},
		Prod: map[[4]int]int{},
		occ:  map[int][]int{},
	}
	buildSpan := opt.Span.Child("build") // nil-safe when spans are off
	m.computeRanks()
	m.computeDomains()
	m.createVariables()
	if err := m.emitConstraints(); err != nil {
		buildSpan.End()
		return nil, err
	}
	m.stats = m.P.Stats()
	buildSpan.SetNum("vars", float64(m.stats.Vars))
	buildSpan.SetNum("rows", float64(m.stats.Rows))
	buildSpan.SetNum("nnz", float64(m.stats.NNZ))
	buildSpan.End()
	m.emitModelEvent()
	return m, nil
}

// minLatencyDuration gives each op the minimum latency over compatible
// units, the valid lower bound for mobility windows.
func minLatencyDuration(inst Instance) sched.Duration {
	return func(i int) int {
		best := 0
		for _, u := range inst.Alloc.UnitsFor(inst.Graph.Op(i).Kind) {
			if l := inst.Alloc.Unit(u).Type.Latency; best == 0 || l < best {
				best = l
			}
		}
		if best == 0 {
			best = 1
		}
		return best
	}
}

func (m *Model) computeRanks() {
	order, _ := m.Inst.Graph.TopoTasks() // instance validated: acyclic
	m.topoRank = make([]int, m.Inst.Graph.NumTasks())
	for rank, t := range order {
		m.topoRank[t] = rank
	}
}

// latOf returns the latency of unit k under the active mode.
func (m *Model) latOf(k int) int {
	if !m.Opt.Multicycle {
		return 1
	}
	return m.Inst.Alloc.Unit(k).Type.Latency
}

// computeDomains fills fu, cs, oPairs and cSteps.
func (m *Model) computeDomains() {
	g, alloc := m.Inst.Graph, m.Inst.Alloc
	no, nt := g.NumOps(), g.NumTasks()
	m.fu = make([][]int, no)
	m.cs = make([][]int, no)
	for i := 0; i < no; i++ {
		m.fu[i] = alloc.UnitsFor(g.Op(i).Kind)
		m.cs[i] = m.Win.Steps(i, m.Opt.L)
	}
	m.oPairs = make([][]int, nt)
	m.cSteps = make([][]int, nt)
	maxStep := m.Win.MaxStep(m.Opt.L)
	for t := 0; t < nt; t++ {
		kset := map[int]bool{}
		jset := map[int]bool{}
		for _, i := range g.Task(t).Ops {
			for _, k := range m.fu[i] {
				kset[k] = true
				lat := m.latOf(k)
				for _, j := range m.cs[i] {
					for jj := j; jj <= j+lat-1 && jj <= maxStep; jj++ {
						jset[jj] = true
					}
				}
			}
		}
		m.oPairs[t] = sortedKeys(kset)
		m.cSteps[t] = sortedKeys(jset)
	}
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// createVariables adds all columns in a fixed deterministic order:
// y, x, o, u, c, z, w, prod.
func (m *Model) createVariables() {
	g := m.Inst.Graph
	nt, no := g.NumTasks(), g.NumOps()
	maxStep := m.Win.MaxStep(m.Opt.L)
	for t := 0; t < nt; t++ {
		for p := 1; p <= m.N; p++ {
			col := m.P.AddBinary(fmt.Sprintf("y[t%d,p%d]", t, p), 0)
			m.Y[[2]int{t, p}] = col
			m.intVars = append(m.intVars, col)
		}
	}
	for i := 0; i < no; i++ {
		for _, j := range m.cs[i] {
			for _, k := range m.fu[i] {
				lat := m.latOf(k)
				if j+lat-1 > maxStep {
					continue // cannot finish within the step budget
				}
				col := m.P.AddBinary(fmt.Sprintf("x[i%d,j%d,k%d]", i, j, k), 0)
				m.X[[3]int{i, j, k}] = col
				m.intVars = append(m.intVars, col)
				steps := make([]int, 0, lat)
				for jj := j; jj <= j+lat-1; jj++ {
					steps = append(steps, jj)
				}
				m.occ[col] = steps
			}
		}
	}
	for t := 0; t < nt; t++ {
		for _, k := range m.oPairs[t] {
			col := m.P.AddBinary(fmt.Sprintf("o[t%d,k%d]", t, k), 0)
			m.O[[2]int{t, k}] = col
			m.intVars = append(m.intVars, col)
		}
	}
	for p := 1; p <= m.N; p++ {
		for k := 0; k < m.Inst.Alloc.NumUnits(); k++ {
			col := m.P.AddBinary(fmt.Sprintf("u[p%d,k%d]", p, k), 0)
			m.U[[2]int{p, k}] = col
			m.intVars = append(m.intVars, col)
		}
	}
	for t := 0; t < nt; t++ {
		for _, j := range m.cSteps[t] {
			col := m.P.AddBinary(fmt.Sprintf("c[t%d,j%d]", t, j), 0)
			m.C[[2]int{t, j}] = col
			m.intVars = append(m.intVars, col)
		}
	}
	zBinary := m.Opt.Linearization == LinFortet
	for p := 1; p <= m.N; p++ {
		for t := 0; t < nt; t++ {
			for _, k := range m.oPairs[t] {
				col := m.P.AddVar(fmt.Sprintf("z[p%d,t%d,k%d]", p, t, k), 0, 0, 1)
				m.Z[[3]int{p, t, k}] = col
				if zBinary {
					m.intVars = append(m.intVars, col)
				}
			}
		}
	}
	for p := 2; p <= m.N; p++ {
		for _, e := range g.TaskEdges() {
			col := m.P.AddVar(fmt.Sprintf("w[p%d,%d->%d]", p, e.From, e.To), float64(e.Bandwidth), 0, 1)
			m.W[[3]int{p, e.From, e.To}] = col
		}
	}
	if m.Opt.WPerProduct {
		for _, e := range g.TaskEdges() {
			for p1 := 1; p1 < m.N; p1++ {
				for p2 := p1 + 1; p2 <= m.N; p2++ {
					col := m.P.AddVar(fmt.Sprintf("v[%d@p%d,%d@p%d]", e.From, p1, e.To, p2), 0, 0, 1)
					m.Prod[[4]int{e.From, e.To, p1, p2}] = col
					if zBinary {
						m.intVars = append(m.intVars, col)
					}
				}
			}
		}
	}
	m.buildTiers()
}

// buildTiers prepares the branching tiers of the paper's heuristic.
func (m *Model) buildTiers() {
	g := m.Inst.Graph
	// tier 1: y in (topological priority, partition) order
	taskOrder := make([]int, g.NumTasks())
	for t := range taskOrder {
		taskOrder[t] = t
	}
	sort.Slice(taskOrder, func(a, b int) bool { return m.topoRank[taskOrder[a]] < m.topoRank[taskOrder[b]] })
	for _, t := range taskOrder {
		for p := 1; p <= m.N; p++ {
			m.tierY = append(m.tierY, m.Y[[2]int{t, p}])
		}
	}
	// tier 2: u in (p, k) order
	for p := 1; p <= m.N; p++ {
		for k := 0; k < m.Inst.Alloc.NumUnits(); k++ {
			m.tierU = append(m.tierU, m.U[[2]int{p, k}])
		}
	}
	// tier 3: x in column order
	cols := make([]int, 0, len(m.X))
	for _, col := range m.X {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	m.tierX = cols
	// remainder: every other integral column
	seen := map[int]bool{}
	for _, c := range m.tierY {
		seen[c] = true
	}
	for _, c := range m.tierU {
		seen[c] = true
	}
	for _, c := range m.tierX {
		seen[c] = true
	}
	for _, c := range m.intVars {
		if !seen[c] {
			m.tierR = append(m.tierR, c)
		}
	}
	sort.Ints(m.tierR)
}

// Stats returns the generated model size (the Var/Const columns of the
// paper's tables), as emitted — unaffected by later presolve passes.
func (m *Model) Stats() lp.Stats { return m.stats }
