package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/lp"
)

// The row families of the model, one per constraint family of the
// paper's formulation; a name is formatted only when something reads
// it.
var (
	rowUniq   = lp.NewFamily("uniq[t%d]")
	rowOrder  = lp.NewFamily("order[%d->%d,p%d]")
	rowMem    = lp.NewFamily("mem[p%d]")
	rowAssign = lp.NewFamily("assign[i%d]")
	rowFU     = lp.NewFamily("fu[k%d,j%d]")
	rowDep    = lp.NewFamily("dep[%d@%d->%d@%d,l%d]")
	rowCap    = lp.NewFamily("cap[p%d]")
	rowCdef   = lp.NewFamily("cdef[t%d,i%d,j%d]")
	rowOwn    = lp.NewFamily("own[t%d,t%d,j%d,p%d,p%d]")
	rowZlo    = lp.NewFamily("zlo[p%d,t%d,k%d]")
	rowZo     = lp.NewFamily("zo[p%d,t%d,k%d]")
	rowZy     = lp.NewFamily("zy[p%d,t%d,k%d]")
	rowZhi    = lp.NewFamily("zhi[p%d,t%d,k%d]")
	rowUz     = lp.NewFamily("uz[p%d,t%d,k%d]")
	rowUwit   = lp.NewFamily("uwit[p%d,k%d]")
	rowOusage = lp.NewFamily("ousage[t%d,i%d,k%d]")
	rowOwit   = lp.NewFamily("owit[t%d,k%d]")
	rowWlin   = lp.NewFamily("wlin[p%d,%d->%d]")
	rowVlo    = lp.NewFamily("vlo[%d@p%d,%d@p%d]")
	rowV1     = lp.NewFamily("v1[%d@p%d,%d@p%d]")
	rowV2     = lp.NewFamily("v2[%d@p%d,%d@p%d]")
	rowVhi    = lp.NewFamily("vhi[%d@p%d,%d@p%d]")
	rowWsum   = lp.NewFamily("wsum[p%d,%d->%d]")
	rowT28    = lp.NewFamily("t28[p%d,%d->%d]")
	rowT29    = lp.NewFamily("t29[p%d,%d->%d]")
	rowT30    = lp.NewFamily("t30[p%d,p%d,%d->%d]")
	rowT32    = lp.NewFamily("t32[t%d,k%d,p%d]")
)

// rowBuf collects one row's columns and coefficients. The emitters of
// a pass share one, so emitting a row allocates nothing once the
// buffer has grown.
type rowBuf struct {
	idx []int
	val []float64
}

// reset empties the buffer for the next row.
func (b *rowBuf) reset() {
	b.idx, b.val = b.idx[:0], b.val[:0]
}

// add appends coefficient v on column col.
func (b *rowBuf) add(col int, v float64) {
	b.idx = append(b.idx, col)
	b.val = append(b.val, v)
}

// addAll appends coefficient v on each of cols.
func (b *rowBuf) addAll(cols []int, v float64) {
	for _, col := range cols {
		b.add(col, v)
	}
}

// rowSink takes the rows the emitters produce. Build runs the emitters
// against a count, which checks and normalizes each row as the LP
// would store it; the first read of the LP runs them again against the
// problem (Model.LP). The embedded buffer is the emitters' scratch row.
// The sink holds both targets as concrete pointers, not behind an
// interface, so that a row's slices do not escape and the emitters'
// row literals stay off the heap.
type rowSink struct {
	rowBuf
	count *lp.RowCount // counting, at Build
	p     *lp.Problem  // storing, on the first read of the LP
}

// le takes sum coef_j x_idx_j <= rhs.
func (s *rowSink) le(k lp.Key, idx []int, coef []float64, rhs float64) error {
	if s.count != nil {
		return s.count.AddRow(k, idx, coef, -lp.Inf, rhs)
	}
	return s.p.AddLE(k, idx, coef, rhs)
}

// ge takes sum coef_j x_idx_j >= rhs.
func (s *rowSink) ge(k lp.Key, idx []int, coef []float64, rhs float64) error {
	if s.count != nil {
		return s.count.AddRow(k, idx, coef, rhs, lp.Inf)
	}
	return s.p.AddGE(k, idx, coef, rhs)
}

// eq takes sum coef_j x_idx_j == rhs.
func (s *rowSink) eq(k lp.Key, idx []int, coef []float64, rhs float64) error {
	if s.count != nil {
		return s.count.AddRow(k, idx, coef, rhs, rhs)
	}
	return s.p.AddEQ(k, idx, coef, rhs)
}

// emitConstraints adds every constraint family of the final model
// (Section 6 of the paper): (1), (2), (3), (6), (7), (8), (11), (12),
// (13), the product linearizations (19)-(23) or their Fortet
// equivalents, (26), (27), the w linearization (31) or the exact
// per-product (4)-(5), and — when Tightened — the cuts (28), (29),
// (30), (32) — to s.
func (m *Model) emitConstraints(s *rowSink) error {
	emit := []func(*rowSink) error{
		m.addUniqueness,     // (1)
		m.addTemporalOrder,  // (2)
		m.addMemoryCapacity, // (3) — uses w columns
		m.addOpAssignment,   // (6)
		m.addFUConflicts,    // (7)
		m.addDependencies,   // (8)
		m.addResourceCap,    // (11)
		m.addStepOwnership,  // (12) + (13)
		m.addZLinearization, // (19)-(21) / Fortet
		m.addULinks,         // (22) + (23, sign-corrected)
		m.addFUUsage,        // (26) + (27)
		m.addWConstraints,   // (31) or (4)-(5)
	}
	if m.Opt.Tightened {
		emit = append(emit, m.addTightening) // (28)-(30) + (32)
	}
	for _, f := range emit {
		if err := f(s); err != nil {
			return err
		}
	}
	return nil
}

// addUniqueness emits eq. (1): every task lands in exactly one
// partition.
func (m *Model) addUniqueness(s *rowSink) error {
	for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
		s.reset()
		for p := 1; p <= m.N; p++ {
			s.add(m.y(t, p), 1)
		}
		if err := s.eq(rowUniq.Key(t), s.idx, s.val, 1); err != nil {
			return err
		}
	}
	return nil
}

// addTemporalOrder emits eq. (2): a producer task may not be placed in
// a later partition than a consumer.
func (m *Model) addTemporalOrder(s *rowSink) error {
	for _, e := range m.Inst.Graph.TaskEdges() {
		for p2 := 1; p2 <= m.N-1; p2++ {
			s.reset()
			s.add(m.y(e.To, p2), 1)
			for p1 := p2 + 1; p1 <= m.N; p1++ {
				s.add(m.y(e.From, p1), 1)
			}
			if err := s.le(rowOrder.Key(e.From, e.To, p2), s.idx, s.val, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// addMemoryCapacity emits eq. (3): data stored across each boundary
// must fit the scratch memory.
func (m *Model) addMemoryCapacity(s *rowSink) error {
	for p := 2; p <= m.N; p++ {
		s.reset()
		for e, te := range m.Inst.Graph.TaskEdges() {
			s.add(m.w(p, e), float64(te.Bandwidth))
		}
		if len(s.idx) == 0 {
			continue
		}
		if err := s.le(rowMem.Key(p), s.idx, s.val, float64(m.Inst.Device.ScratchMem)); err != nil {
			return err
		}
	}
	return nil
}

// addOpAssignment emits eq. (6): each op gets exactly one (step, FU).
func (m *Model) addOpAssignment(s *rowSink) error {
	for i := 0; i < m.Inst.Graph.NumOps(); i++ {
		s.reset()
		for _, j := range m.cs[i] {
			for _, k := range m.fu[i] {
				if col := m.x(i, j, k); col >= 0 {
					s.add(col, 1)
				}
			}
		}
		if len(s.idx) == 0 {
			return fmt.Errorf("core: op %d has no feasible (step, FU) pair; increase L", i)
		}
		if err := s.eq(rowAssign.Key(i), s.idx, s.val, 1); err != nil {
			return err
		}
	}
	return nil
}

// addFUConflicts emits eq. (7) — corrected to per (step, FU): at most
// one op occupies a unit at any control step. Non-pipelined multicycle
// units occupy every step of their latency; pipelined units only the
// issue slot.
func (m *Model) addFUConflicts(s *rowSink) error {
	alloc := m.Inst.Alloc
	for k := 0; k < alloc.NumUnits(); k++ {
		// a pipelined unit is busy in its issue slot only
		span := m.latOf(k)
		if alloc.Unit(k).Type.Pipelined {
			span = 1
		}
		for jj := 0; jj < m.cols.steps; jj++ {
			// the placements that keep k busy at jj, by column
			s.reset()
			for i := range m.cs {
				for j := jj - span + 1; j <= jj; j++ {
					if col := m.x(i, j, k); col >= 0 {
						s.add(col, 1)
					}
				}
			}
			if len(s.idx) < 2 {
				continue
			}
			if err := s.le(rowFU.Key(k, jj), s.idx, s.val, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepCol records that x column col occupies control step step.
type stepCol struct{ step, col int }

// byStepCol orders occupancies by step, then by column.
func byStepCol(a, b stepCol) int {
	if c := cmp.Compare(a.step, b.step); c != 0 {
		return c
	}
	return cmp.Compare(a.col, b.col)
}

// addDependencies emits eq. (8): for every operation dependency
// i1 -> i2, forbid schedules where i2 starts before i1 finishes.
// Producer columns are grouped by FU latency so the multicycle
// extension reuses the same emission.
func (m *Model) addDependencies(s *rowSink) error {
	var prodCols, lats, units []int
	for _, e := range m.Inst.Graph.OpEdges() {
		// the producer units' distinct latencies, ascending
		lats = lats[:0]
		for _, k1 := range m.fu[e.From] {
			if lam := m.latOf(k1); !slices.Contains(lats, lam) {
				lats = append(lats, lam)
			}
		}
		slices.Sort(lats)
		for _, lam := range lats {
			units = units[:0]
			for _, k1 := range m.fu[e.From] {
				if m.latOf(k1) == lam {
					units = append(units, k1)
				}
			}
			for _, j1 := range m.cs[e.From] {
				prodCols = prodCols[:0]
				for _, k1 := range units {
					if col := m.x(e.From, j1, k1); col >= 0 {
						prodCols = append(prodCols, col)
					}
				}
				if len(prodCols) == 0 {
					continue
				}
				for _, j2 := range m.cs[e.To] {
					if j2 >= j1+lam {
						continue // legal placement
					}
					s.reset()
					s.addAll(prodCols, 1)
					for _, k2 := range m.fu[e.To] {
						if col := m.x(e.To, j2, k2); col >= 0 {
							s.add(col, 1)
						}
					}
					if len(s.idx) == len(prodCols) {
						continue // no consumer placement at j2
					}
					if err := s.le(rowDep.Key(e.From, j1, e.To, j2, lam), s.idx, s.val, 1); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// addResourceCap emits eq. (11): alpha-scaled FG area of the units
// used in each partition must fit the device. The row is emitted in
// the equivalent divided form sum_k FG_k u_pk <= C/alpha (alpha > 0 by
// Instance.Validate), keeping both device scalars off the coefficient
// matrix: an alpha or capacity edit then changes only the row's range,
// which the delta re-solve layer can apply to a live solver without a
// refactorization.
func (m *Model) addResourceCap(s *rowSink) error {
	alloc, dev := m.Inst.Alloc, m.Inst.Device
	for p := 1; p <= m.N; p++ {
		s.reset()
		for k := 0; k < alloc.NumUnits(); k++ {
			s.add(m.u(p, k), float64(alloc.Unit(k).Type.FG))
		}
		if err := s.le(rowCap.Key(p), s.idx, s.val, float64(dev.CapacityFG)/dev.Alpha); err != nil {
			return err
		}
	}
	return nil
}

// addStepOwnership emits eq. (12) — c_tj is forced to 1 when any op of
// task t occupies step j — and eq. (13): tasks sharing a control step
// must share a partition.
func (m *Model) addStepOwnership(s *rowSink) error {
	g := m.Inst.Graph
	nt := g.NumTasks()
	// (12), grouped per (op, occupied step): c_tj >= sum_k x (the sum
	// over one op's placements covering j is at most 1 by eq. 6)
	var occ []stepCol
	for t := 0; t < nt; t++ {
		for _, i := range g.Task(t).Ops {
			occ = occ[:0]
			for _, j := range m.cs[i] {
				for _, k := range m.fu[i] {
					col := m.x(i, j, k)
					if col < 0 {
						continue
					}
					for jj := j; jj < j+m.latOf(k); jj++ {
						occ = append(occ, stepCol{jj, col})
					}
				}
			}
			slices.SortFunc(occ, byStepCol)
			for a, z := 0, 0; a < len(occ); a = z {
				jj := occ[a].step
				s.reset()
				s.add(m.c(t, jj), 1)
				for z = a; z < len(occ) && occ[z].step == jj; z++ {
					s.add(occ[z].col, -1)
				}
				if err := s.ge(rowCdef.Key(t, i, jj), s.idx, s.val, 0); err != nil {
					return err
				}
			}
		}
	}
	// (13): c_t1j + y_t1p1 + c_t2j + y_t2p2 <= 3 for t1 < t2 sharing
	// step j and ordered partition pairs p1 != p2
	var shared []int
	for t1 := 0; t1 < nt; t1++ {
		for t2 := t1 + 1; t2 < nt; t2++ {
			shared = intersectSorted(shared[:0], m.cSteps[t1], m.cSteps[t2])
			for _, j := range shared {
				c1 := m.c(t1, j)
				c2 := m.c(t2, j)
				for p1 := 1; p1 <= m.N; p1++ {
					for p2 := 1; p2 <= m.N; p2++ {
						if p1 == p2 {
							continue
						}
						cols := []int{c1, m.y(t1, p1), c2, m.y(t2, p2)}
						if err := s.le(rowOwn.Key(t1, t2, j, p1, p2), cols, []float64{1, 1, 1, 1}, 3); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// intersectSorted appends the common elements of the ascending lists a
// and b to out.
func intersectSorted(out, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// addZLinearization emits the product linearization z_ptk = y_tp*o_tk:
// Glover (19)-(21) or Fortet (15)-(16).
func (m *Model) addZLinearization(s *rowSink) error {
	for p := 1; p <= m.N; p++ {
		for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
			for _, k := range m.oPairs[t] {
				y := m.y(t, p)
				o := m.o(t, k)
				z := m.z(p, t, k)
				// (19)/(15): y + o - z <= 1
				if err := s.le(rowZlo.Key(p, t, k), []int{y, o, z}, []float64{1, 1, -1}, 1); err != nil {
					return err
				}
				if m.Opt.Linearization == LinGlover {
					// (20): z <= o, (21): z <= y
					if err := s.le(rowZo.Key(p, t, k), []int{z, o}, []float64{1, -1}, 0); err != nil {
						return err
					}
					if err := s.le(rowZy.Key(p, t, k), []int{z, y}, []float64{1, -1}, 0); err != nil {
						return err
					}
				} else {
					// (16): 2z - y - o <= 0
					if err := s.le(rowZhi.Key(p, t, k), []int{z, y, o}, []float64{2, -1, -1}, 0); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// addULinks emits eq. (22), u_pk >= z_ptk, and eq. (23) with the sign
// corrected so that partitions may share units: u_pk <= sum_t z_ptk
// (the role eq. (10) plays in the nonlinear model — u must be
// witnessed by at least one task).
func (m *Model) addULinks(s *rowSink) error {
	nt := m.Inst.Graph.NumTasks()
	for p := 1; p <= m.N; p++ {
		for k := 0; k < m.Inst.Alloc.NumUnits(); k++ {
			u := m.u(p, k)
			s.reset()
			s.add(u, 1)
			for t := 0; t < nt; t++ {
				if z := m.z(p, t, k); z >= 0 {
					s.add(z, -1)
					// (22): z - u <= 0
					if err := s.le(rowUz.Key(p, t, k), []int{z, u}, []float64{1, -1}, 0); err != nil {
						return err
					}
				}
			}
			// (23): u - sum_t z <= 0
			if err := s.le(rowUwit.Key(p, k), s.idx, s.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addFUUsage emits the o_tk derivation: eq. (26) strengthened to one
// row per (op, unit) — o_tk >= sum_j x_ijk, valid because eq. (6)
// bounds the sum by 1 — and eq. (27): o_tk <= total x of the task on k.
func (m *Model) addFUUsage(s *rowSink) error {
	g := m.Inst.Graph
	var all rowBuf // the (27) row, built alongside the (26) rows
	for t := 0; t < g.NumTasks(); t++ {
		for _, k := range m.oPairs[t] {
			o := m.o(t, k)
			all.reset()
			all.add(o, -1)
			for _, i := range g.Task(t).Ops {
				s.reset()
				s.add(o, 1)
				for _, j := range m.cs[i] {
					if col := m.x(i, j, k); col >= 0 {
						s.add(col, -1)
						all.add(col, 1)
					}
				}
				if len(s.idx) == 1 {
					continue
				}
				// (26, grouped): o - sum_j x_ijk >= 0
				if err := s.ge(rowOusage.Key(t, i, k), s.idx, s.val, 0); err != nil {
					return err
				}
			}
			// (27): sum_{i,j} x - o >= 0
			if err := s.ge(rowOwit.Key(t, k), all.idx, all.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addWConstraints emits the w linearization: the compact eq. (31) —
// w_p >= sum_{p1<p} y_t1p1 + sum_{p2>=p} y_t2p2 - 1 — or, with
// WPerProduct, the exact per-product eqs. (4)-(5).
func (m *Model) addWConstraints(s *rowSink) error {
	g := m.Inst.Graph
	if !m.Opt.WPerProduct {
		for p := 2; p <= m.N; p++ {
			for ei, e := range g.TaskEdges() {
				s.reset()
				s.add(m.w(p, ei), -1)
				for p1 := 1; p1 < p; p1++ {
					s.add(m.y(e.From, p1), 1)
				}
				for p2 := p; p2 <= m.N; p2++ { // paper prints p2 < N; Figure 4 shows p2 <= N
					s.add(m.y(e.To, p2), 1)
				}
				if err := s.le(rowWlin.Key(p, e.From, e.To), s.idx, s.val, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// per-product: v = y_t1p1 * y_t2p2 linearized, then (5):
	// sum_{p1<p<=p2} v = w_p
	for ei, e := range g.TaskEdges() {
		for p1 := 1; p1 < m.N; p1++ {
			y1 := m.y(e.From, p1)
			for p2 := p1 + 1; p2 <= m.N; p2++ {
				y2 := m.y(e.To, p2)
				v := m.v(ei, p1, p2)
				if err := s.le(rowVlo.Key(e.From, p1, e.To, p2), []int{y1, y2, v}, []float64{1, 1, -1}, 1); err != nil {
					return err
				}
				if m.Opt.Linearization == LinGlover {
					if err := s.le(rowV1.Key(e.From, p1, e.To, p2), []int{v, y1}, []float64{1, -1}, 0); err != nil {
						return err
					}
					if err := s.le(rowV2.Key(e.From, p1, e.To, p2), []int{v, y2}, []float64{1, -1}, 0); err != nil {
						return err
					}
				} else {
					if err := s.le(rowVhi.Key(e.From, p1, e.To, p2), []int{v, y1, y2}, []float64{2, -1, -1}, 0); err != nil {
						return err
					}
				}
			}
		}
	}
	for p := 2; p <= m.N; p++ {
		for ei, e := range g.TaskEdges() {
			s.reset()
			s.add(m.w(p, ei), -1)
			for p1 := 1; p1 < p; p1++ {
				for p2 := p; p2 <= m.N; p2++ {
					s.add(m.v(ei, p1, p2), 1)
				}
			}
			if err := s.eq(rowWsum.Key(p, e.From, e.To), s.idx, s.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addTightening emits the cuts of Section 6: (28), (29) with the
// off-by-one corrected to p < p1, (30), and (32).
func (m *Model) addTightening(s *rowSink) error {
	g := m.Inst.Graph
	cuts := m.Opt.Cuts
	for ei, e := range g.TaskEdges() {
		for p1 := 2; p1 <= m.N; p1++ {
			w := m.w(p1, ei)
			if cuts.Has(Cut28) {
				// (28): w_p1 + sum_{p1<=p<=N} y_t1p <= 1
				s.reset()
				s.add(w, 1)
				for p := p1; p <= m.N; p++ {
					s.add(m.y(e.From, p), 1)
				}
				if err := s.le(rowT28.Key(p1, e.From, e.To), s.idx, s.val, 1); err != nil {
					return err
				}
			}
			if cuts.Has(Cut29) {
				// (29): w_p1 + sum_{1<=p<p1} y_t2p <= 1
				s.reset()
				s.add(w, 1)
				for p := 1; p < p1; p++ {
					s.add(m.y(e.To, p), 1)
				}
				if err := s.le(rowT29.Key(p1, e.From, e.To), s.idx, s.val, 1); err != nil {
					return err
				}
			}
		}
		if cuts.Has(Cut30) {
			// (30): both tasks in partition p silence every other boundary
			for p := 2; p <= m.N; p++ {
				for p1 := 2; p1 <= m.N; p1++ {
					if p1 == p {
						continue
					}
					cols := []int{m.y(e.From, p), m.y(e.To, p), m.w(p1, ei)}
					if err := s.le(rowT30.Key(p, p1, e.From, e.To), cols, []float64{1, 1, 1}, 2); err != nil {
						return err
					}
				}
			}
		}
	}
	if cuts.Has(Cut32) {
		// (32): o_tk + y_tp - u_pk <= 1
		for t := 0; t < g.NumTasks(); t++ {
			for _, k := range m.oPairs[t] {
				for p := 1; p <= m.N; p++ {
					cols := []int{m.o(t, k), m.y(t, p), m.u(p, k)}
					if err := s.le(rowT32.Key(t, k, p), cols, []float64{1, 1, -1}, 1); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
