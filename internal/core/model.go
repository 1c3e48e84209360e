package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/lp"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Model is the generated mixed 0-1 linear program for an instance.
// Build lays out its columns, the paper's indexed decision variables,
// and counts its rows; the program itself is emitted by the first call
// to LP.
type Model struct {
	Inst Instance
	Opt  Options
	Win  *sched.Windows
	// N is the resolved number of partitions.
	N int

	// prob is the linear program, emitted once by LP into arrays
	// reserved from rows, Build's count of its rows.
	lpOnce sync.Once
	prob   *lp.Problem
	rows   *lp.RowCount
	// cols locates every column (see layout).
	cols layout

	intVars []int
	tierY   []int // paper branching tier 1, in (topo-priority, p) order
	tierU   []int // tier 2
	tierX   []int // tier 3

	// fu(i): compatible unit IDs per op; cs(i): candidate start steps.
	fu [][]int
	cs [][]int
	// sched holds the exact scheduler's read-only tables.
	sched *schedTables
	// steps holds the step count's read-only tables, built by
	// stepTables on first use.
	stepOnce sync.Once
	steps    *stepTables
	// oPairs[t] lists unit IDs k with an o_tk variable, ascending.
	oPairs [][]int
	// cSteps[t] lists steps j with a c_tj variable, ascending.
	cSteps [][]int
	// topoRank[t] is the branching priority of task t (0 = highest).
	topoRank []int
	// stats is the generated model size, as Build counted it.
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
	// ctx is the context of the running SolveContext, carrying the
	// deadline of Options.TimeLimit (during the exact sweep, a child
	// with half the budget). The sweep and the scheduling probes poll
	// it; nil (never done) outside a solve.
	ctx context.Context
}

// layout locates the columns of a model. Each family's columns are
// contiguous, in the order y, x, o, u, c, z, w, v. The families that
// have a column for every combination of their indexes (y, u, z, w and
// v) are located by arithmetic, x, o and c by dense tables that hold
// -1 where a combination has none.
type layout struct {
	// the first column of each family after y, which starts at 0, and
	// the column count
	x, o, u, c, z, w, v, end int
	nu, ne                   int // units, task edges
	steps                    int // control steps 0..MaxStep(L)
	// xAt[xOff[i] + (j-cs[i][0])*nu + k] is the column of x_ijk.
	xOff, xAt []int
	oAt       []int // o_tk at t*nu + k
	cAt       []int // c_tj at t*steps + j
}

// y returns the column of y_tp.
func (m *Model) y(t, p int) int { return t*m.N + p - 1 }

// x returns the column of x_ijk, or -1 when it has none.
func (m *Model) x(i, j, k int) int {
	a := j - m.cs[i][0]
	if a < 0 || a >= len(m.cs[i]) {
		return -1
	}
	return m.cols.xAt[m.cols.xOff[i]+a*m.cols.nu+k]
}

// o returns the column of o_tk, or -1 when it has none.
func (m *Model) o(t, k int) int { return m.cols.oAt[t*m.cols.nu+k] }

// u returns the column of u_pk.
func (m *Model) u(p, k int) int { return m.cols.u + (p-1)*m.cols.nu + k }

// c returns the column of c_tj, or -1 when it has none.
func (m *Model) c(t, j int) int { return m.cols.cAt[t*m.cols.steps+j] }

// z returns the column of z_ptk, or -1 when o_tk has none: the z
// columns of each partition follow the o columns' order.
func (m *Model) z(p, t, k int) int {
	o := m.o(t, k)
	if o < 0 {
		return -1
	}
	return m.cols.z + (p-1)*(m.cols.u-m.cols.o) + o - m.cols.o
}

// w returns the column of w_p for task edge e, an index into
// TaskEdges.
func (m *Model) w(p, e int) int { return m.cols.w + (p-2)*m.cols.ne + e }

// v returns the column of the product y_{t1,p1} y_{t2,p2} of task edge
// e = t1->t2 (WPerProduct), p1 < p2. Each edge has one column per
// pair, ordered by p1, then p2.
func (m *Model) v(e, p1, p2 int) int {
	before := (p1-1)*m.N - (p1-1)*p1/2 // the edge's pairs with a smaller p1
	return m.cols.v + e*(m.N*(m.N-1)/2) + before + p2 - p1 - 1
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
	m := &Model{Inst: inst, Opt: opt, Win: win, N: opt.N}
	buildSpan := opt.Span.Child("build") // nil-safe when spans are off
	m.computeRanks()
	m.buildSchedTables()
	m.computeDomains()
	m.layoutColumns()
	m.rows = lp.CountRows(m.cols.end)
	if err := m.emitConstraints(&rowSink{count: m.rows}); err != nil {
		buildSpan.End()
		return nil, err
	}
	m.stats = m.rows.Stats()
	m.endBuildSpan(buildSpan)
	m.emitModelEvent()
	return m, nil
}

// LP returns the model's linear program. Build only counts its rows:
// the first call emits the columns and rows, into arrays reserved
// exactly from that count, under a "build" child of Opt.Span. Callers
// racing the first call all wait for the one emission and get the same
// problem. ApplyPresolve and AddRow change the problem in place, so
// they must not race readers.
func (m *Model) LP() *lp.Problem {
	m.lpOnce.Do(m.emitLP)
	return m.prob
}

// emitLP emits the linear program Build laid out and counted.
func (m *Model) emitLP() {
	sp := m.Opt.Span.Child("build")
	p := &lp.Problem{}
	m.addColumns(p)
	p.ReserveRows(m.rows)
	if err := m.emitConstraints(&rowSink{p: p}); err != nil {
		panic(fmt.Sprintf("core: emitting rows Build counted: %v", err))
	}
	if st := p.Stats(); st != m.stats {
		panic(fmt.Sprintf("core: emitted %+v, Build counted %+v", st, m.stats))
	}
	m.prob, m.rows = p, nil
	m.endBuildSpan(sp)
}

// endBuildSpan reports the model size on a build span and ends it.
func (m *Model) endBuildSpan(sp *trace.Span) {
	sp.SetNum("vars", float64(m.stats.Vars))
	sp.SetNum("rows", float64(m.stats.Rows))
	sp.SetNum("nnz", float64(m.stats.NNZ))
	sp.End()
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

// computeDomains fills fu (from the scheduler tables), cs, oPairs and
// cSteps.
func (m *Model) computeDomains() {
	g := m.Inst.Graph
	no, nt := g.NumOps(), g.NumTasks()
	m.fu = make([][]int, no)
	m.cs = make([][]int, no)
	for i := 0; i < no; i++ {
		m.fu[i] = m.sched.kindUnits[m.sched.kindOf[i]]
		m.cs[i] = m.Win.Steps(i, m.Opt.L)
	}
	m.oPairs = make([][]int, nt)
	m.cSteps = make([][]int, nt)
	maxStep := m.Win.MaxStep(m.Opt.L)
	usesUnit := make([]bool, m.Inst.Alloc.NumUnits())
	usesStep := make([]bool, maxStep+1)
	for t := 0; t < nt; t++ {
		clear(usesUnit)
		clear(usesStep)
		for _, i := range g.Task(t).Ops {
			for _, k := range m.fu[i] {
				usesUnit[k] = true
				lat := m.latOf(k)
				for _, j := range m.cs[i] {
					for jj := j; jj <= j+lat-1 && jj <= maxStep; jj++ {
						usesStep[jj] = true
					}
				}
			}
		}
		m.oPairs[t] = marked(usesUnit)
		m.cSteps[t] = marked(usesStep)
	}
}

// marked lists the indexes of the true entries of marks, ascending.
func marked(marks []bool) []int {
	var out []int
	for v, ok := range marks {
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// The column families of the model, named in the paper's index
// notation; a name is formatted only when something reads it.
var (
	colY = lp.NewFamily("y[t%d,p%d]")
	colX = lp.NewFamily("x[i%d,j%d,k%d]")
	colO = lp.NewFamily("o[t%d,k%d]")
	colU = lp.NewFamily("u[p%d,k%d]")
	colC = lp.NewFamily("c[t%d,j%d]")
	colZ = lp.NewFamily("z[p%d,t%d,k%d]")
	colW = lp.NewFamily("w[p%d,%d->%d]")
	colV = lp.NewFamily("v[%d@p%d,%d@p%d]")
)

// layoutColumns numbers the columns, family by family in a fixed
// order: y, x, o, u, c, z, w, v. It lists the integral ones and the
// branching tiers.
func (m *Model) layoutColumns() {
	g := m.Inst.Graph
	nt, no := g.NumTasks(), g.NumOps()
	l := &m.cols
	l.nu, l.ne = m.Inst.Alloc.NumUnits(), len(g.TaskEdges())
	maxStep := m.Win.MaxStep(m.Opt.L)
	l.steps = maxStep + 1
	col := nt * m.N // the y columns
	l.x = col
	l.xOff = make([]int, no+1)
	for i := 0; i < no; i++ {
		l.xOff[i+1] = l.xOff[i] + len(m.cs[i])*l.nu
	}
	l.xAt = absent(l.xOff[no])
	for i := 0; i < no; i++ {
		for a, j := range m.cs[i] {
			for _, k := range m.fu[i] {
				if j+m.latOf(k)-1 > maxStep {
					continue // cannot finish within the step budget
				}
				l.xAt[l.xOff[i]+a*l.nu+k] = col
				col++
			}
		}
	}
	l.o = col
	l.oAt = absent(nt * l.nu)
	for t := 0; t < nt; t++ {
		for _, k := range m.oPairs[t] {
			l.oAt[t*l.nu+k] = col
			col++
		}
	}
	l.u = col
	col += m.N * l.nu
	l.c = col
	l.cAt = absent(nt * l.steps)
	for t := 0; t < nt; t++ {
		for _, j := range m.cSteps[t] {
			l.cAt[t*l.steps+j] = col
			col++
		}
	}
	l.z = col
	col += m.N * (l.u - l.o)
	l.w = col
	col += (m.N - 1) * l.ne
	l.v = col
	if m.Opt.WPerProduct {
		col += l.ne * m.N * (m.N - 1) / 2
	}
	l.end = col
	// y, x, o, u and c are binary; under Fortet, z and v are too
	fortet := m.Opt.Linearization == LinFortet
	n := l.z
	if fortet {
		n += l.w - l.z + l.end - l.v
	}
	m.intVars = appendRange(make([]int, 0, n), 0, l.z)
	if fortet {
		m.intVars = appendRange(m.intVars, l.z, l.w)
		m.intVars = appendRange(m.intVars, l.v, l.end)
	}
	m.buildTiers()
}

// absent returns n table entries of -1, no column.
func absent(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// appendRange appends the columns from, ..., to-1 to cols.
func appendRange(cols []int, from, to int) []int {
	for col := from; col < to; col++ {
		cols = append(cols, col)
	}
	return cols
}

// addColumns adds the laid-out columns to p in column order, into
// arrays reserved exactly.
func (m *Model) addColumns(p *lp.Problem) {
	g := m.Inst.Graph
	nt, l := g.NumTasks(), &m.cols
	p.ReserveVars(l.end)
	for t := 0; t < nt; t++ {
		for q := 1; q <= m.N; q++ {
			p.AddBinary(colY.Key(t, q), 0)
		}
	}
	for i := range m.cs {
		for _, j := range m.cs[i] {
			for k := 0; k < l.nu; k++ {
				if m.x(i, j, k) >= 0 {
					p.AddBinary(colX.Key(i, j, k), 0)
				}
			}
		}
	}
	for t := 0; t < nt; t++ {
		for _, k := range m.oPairs[t] {
			p.AddBinary(colO.Key(t, k), 0)
		}
	}
	for q := 1; q <= m.N; q++ {
		for k := 0; k < l.nu; k++ {
			p.AddBinary(colU.Key(q, k), 0)
		}
	}
	for t := 0; t < nt; t++ {
		for _, j := range m.cSteps[t] {
			p.AddBinary(colC.Key(t, j), 0)
		}
	}
	for q := 1; q <= m.N; q++ {
		for t := 0; t < nt; t++ {
			for _, k := range m.oPairs[t] {
				p.AddVar(colZ.Key(q, t, k), 0, 0, 1)
			}
		}
	}
	for q := 2; q <= m.N; q++ {
		for _, e := range g.TaskEdges() {
			p.AddVar(colW.Key(q, e.From, e.To), float64(e.Bandwidth), 0, 1)
		}
	}
	if m.Opt.WPerProduct {
		for _, e := range g.TaskEdges() {
			for p1 := 1; p1 < m.N; p1++ {
				for p2 := p1 + 1; p2 <= m.N; p2++ {
					p.AddVar(colV.Key(e.From, p1, e.To, p2), 0, 0, 1)
				}
			}
		}
	}
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
	m.tierY = make([]int, 0, m.cols.x)
	for _, t := range taskOrder {
		for p := 1; p <= m.N; p++ {
			m.tierY = append(m.tierY, m.y(t, p))
		}
	}
	// tier 2: u in (p, k) order; tier 3: x in column order. intVars
	// starts with every column below z, in order, so both are slices
	// of it.
	l := &m.cols
	m.tierU = m.intVars[l.u:l.c:l.c]
	m.tierX = m.intVars[l.x:l.o:l.o]
}

// Stats returns the generated model size (the Var/Const columns of the
// paper's tables), as Build counted it: known without emitting the LP,
// and unaffected by later presolve passes.
func (m *Model) Stats() lp.Stats { return m.stats }
