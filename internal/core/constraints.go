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
// a build share one, so emitting a row allocates nothing once the
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

// emitConstraints adds every constraint family of the final model
// (Section 6 of the paper): (1), (2), (3), (6), (7), (8), (11), (12),
// (13), the product linearizations (19)-(23) or their Fortet
// equivalents, (26), (27), the w linearization (31) or the exact
// per-product (4)-(5), and — when Tightened — the cuts (28), (29),
// (30), (32).
func (m *Model) emitConstraints() error {
	emit := []func(*rowBuf) error{
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
	b := &rowBuf{}
	for _, f := range emit {
		if err := f(b); err != nil {
			return err
		}
	}
	return nil
}

// addUniqueness emits eq. (1): every task lands in exactly one
// partition.
func (m *Model) addUniqueness(b *rowBuf) error {
	for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
		b.reset()
		for p := 1; p <= m.N; p++ {
			b.add(m.Y[[2]int{t, p}], 1)
		}
		if err := m.P.AddEQ(rowUniq.Key(t), b.idx, b.val, 1); err != nil {
			return err
		}
	}
	return nil
}

// addTemporalOrder emits eq. (2): a producer task may not be placed in
// a later partition than a consumer.
func (m *Model) addTemporalOrder(b *rowBuf) error {
	for _, e := range m.Inst.Graph.TaskEdges() {
		for p2 := 1; p2 <= m.N-1; p2++ {
			b.reset()
			b.add(m.Y[[2]int{e.To, p2}], 1)
			for p1 := p2 + 1; p1 <= m.N; p1++ {
				b.add(m.Y[[2]int{e.From, p1}], 1)
			}
			if err := m.P.AddLE(rowOrder.Key(e.From, e.To, p2), b.idx, b.val, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// addMemoryCapacity emits eq. (3): data stored across each boundary
// must fit the scratch memory.
func (m *Model) addMemoryCapacity(b *rowBuf) error {
	for p := 2; p <= m.N; p++ {
		b.reset()
		for _, e := range m.Inst.Graph.TaskEdges() {
			b.add(m.W[[3]int{p, e.From, e.To}], float64(e.Bandwidth))
		}
		if len(b.idx) == 0 {
			continue
		}
		if err := m.P.AddLE(rowMem.Key(p), b.idx, b.val, float64(m.Inst.Device.ScratchMem)); err != nil {
			return err
		}
	}
	return nil
}

// addOpAssignment emits eq. (6): each op gets exactly one (step, FU).
func (m *Model) addOpAssignment(b *rowBuf) error {
	for i := 0; i < m.Inst.Graph.NumOps(); i++ {
		b.reset()
		for _, j := range m.cs[i] {
			for _, k := range m.fu[i] {
				if col, ok := m.X[[3]int{i, j, k}]; ok {
					b.add(col, 1)
				}
			}
		}
		if len(b.idx) == 0 {
			return fmt.Errorf("core: op %d has no feasible (step, FU) pair; increase L", i)
		}
		if err := m.P.AddEQ(rowAssign.Key(i), b.idx, b.val, 1); err != nil {
			return err
		}
	}
	return nil
}

// addFUConflicts emits eq. (7) — corrected to per (step, FU): at most
// one op occupies a unit at any control step. Non-pipelined multicycle
// units occupy every step of their latency; pipelined units only the
// issue slot.
func (m *Model) addFUConflicts(b *rowBuf) error {
	alloc := m.Inst.Alloc
	var occ []stepCol
	for k := 0; k < alloc.NumUnits(); k++ {
		// a pipelined unit is busy in its issue slot only
		span := m.latOf(k)
		if alloc.Unit(k).Type.Pipelined {
			span = 1
		}
		occ = occ[:0]
		for key, col := range m.X {
			if key[2] != k {
				continue
			}
			for jj := key[1]; jj < key[1]+span; jj++ {
				occ = append(occ, stepCol{jj, col})
			}
		}
		slices.SortFunc(occ, byStepCol)
		for a, z := 0, 0; a < len(occ); a = z {
			for z = a; z < len(occ) && occ[z].step == occ[a].step; z++ {
			}
			if z-a < 2 {
				continue
			}
			b.reset()
			for _, o := range occ[a:z] {
				b.add(o.col, 1)
			}
			if err := m.P.AddLE(rowFU.Key(k, occ[a].step), b.idx, b.val, 1); err != nil {
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
func (m *Model) addDependencies(b *rowBuf) error {
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
					if col, ok := m.X[[3]int{e.From, j1, k1}]; ok {
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
					b.reset()
					b.addAll(prodCols, 1)
					for _, k2 := range m.fu[e.To] {
						if col, ok := m.X[[3]int{e.To, j2, k2}]; ok {
							b.add(col, 1)
						}
					}
					if len(b.idx) == len(prodCols) {
						continue // no consumer placement at j2
					}
					if err := m.P.AddLE(rowDep.Key(e.From, j1, e.To, j2, lam), b.idx, b.val, 1); err != nil {
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
func (m *Model) addResourceCap(b *rowBuf) error {
	alloc, dev := m.Inst.Alloc, m.Inst.Device
	for p := 1; p <= m.N; p++ {
		b.reset()
		for k := 0; k < alloc.NumUnits(); k++ {
			b.add(m.U[[2]int{p, k}], float64(alloc.Unit(k).Type.FG))
		}
		if err := m.P.AddLE(rowCap.Key(p), b.idx, b.val, float64(dev.CapacityFG)/dev.Alpha); err != nil {
			return err
		}
	}
	return nil
}

// addStepOwnership emits eq. (12) — c_tj is forced to 1 when any op of
// task t occupies step j — and eq. (13): tasks sharing a control step
// must share a partition.
func (m *Model) addStepOwnership(b *rowBuf) error {
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
					col, ok := m.X[[3]int{i, j, k}]
					if !ok {
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
				b.reset()
				b.add(m.C[[2]int{t, jj}], 1)
				for z = a; z < len(occ) && occ[z].step == jj; z++ {
					b.add(occ[z].col, -1)
				}
				if err := m.P.AddGE(rowCdef.Key(t, i, jj), b.idx, b.val, 0); err != nil {
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
				c1 := m.C[[2]int{t1, j}]
				c2 := m.C[[2]int{t2, j}]
				for p1 := 1; p1 <= m.N; p1++ {
					for p2 := 1; p2 <= m.N; p2++ {
						if p1 == p2 {
							continue
						}
						cols := []int{c1, m.Y[[2]int{t1, p1}], c2, m.Y[[2]int{t2, p2}]}
						if err := m.P.AddLE(rowOwn.Key(t1, t2, j, p1, p2), cols, []float64{1, 1, 1, 1}, 3); err != nil {
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
func (m *Model) addZLinearization(*rowBuf) error {
	for p := 1; p <= m.N; p++ {
		for t := 0; t < m.Inst.Graph.NumTasks(); t++ {
			for _, k := range m.oPairs[t] {
				y := m.Y[[2]int{t, p}]
				o := m.O[[2]int{t, k}]
				z := m.Z[[3]int{p, t, k}]
				// (19)/(15): y + o - z <= 1
				if err := m.P.AddLE(rowZlo.Key(p, t, k), []int{y, o, z}, []float64{1, 1, -1}, 1); err != nil {
					return err
				}
				if m.Opt.Linearization == LinGlover {
					// (20): z <= o, (21): z <= y
					if err := m.P.AddLE(rowZo.Key(p, t, k), []int{z, o}, []float64{1, -1}, 0); err != nil {
						return err
					}
					if err := m.P.AddLE(rowZy.Key(p, t, k), []int{z, y}, []float64{1, -1}, 0); err != nil {
						return err
					}
				} else {
					// (16): 2z - y - o <= 0
					if err := m.P.AddLE(rowZhi.Key(p, t, k), []int{z, y, o}, []float64{2, -1, -1}, 0); err != nil {
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
func (m *Model) addULinks(b *rowBuf) error {
	nt := m.Inst.Graph.NumTasks()
	for p := 1; p <= m.N; p++ {
		for k := 0; k < m.Inst.Alloc.NumUnits(); k++ {
			u := m.U[[2]int{p, k}]
			b.reset()
			b.add(u, 1)
			for t := 0; t < nt; t++ {
				if z, ok := m.Z[[3]int{p, t, k}]; ok {
					b.add(z, -1)
					// (22): z - u <= 0
					if err := m.P.AddLE(rowUz.Key(p, t, k), []int{z, u}, []float64{1, -1}, 0); err != nil {
						return err
					}
				}
			}
			// (23): u - sum_t z <= 0
			if err := m.P.AddLE(rowUwit.Key(p, k), b.idx, b.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addFUUsage emits the o_tk derivation: eq. (26) strengthened to one
// row per (op, unit) — o_tk >= sum_j x_ijk, valid because eq. (6)
// bounds the sum by 1 — and eq. (27): o_tk <= total x of the task on k.
func (m *Model) addFUUsage(b *rowBuf) error {
	g := m.Inst.Graph
	var all rowBuf // the (27) row, built alongside the (26) rows
	for t := 0; t < g.NumTasks(); t++ {
		for _, k := range m.oPairs[t] {
			o := m.O[[2]int{t, k}]
			all.reset()
			all.add(o, -1)
			for _, i := range g.Task(t).Ops {
				b.reset()
				b.add(o, 1)
				for _, j := range m.cs[i] {
					if col, ok := m.X[[3]int{i, j, k}]; ok {
						b.add(col, -1)
						all.add(col, 1)
					}
				}
				if len(b.idx) == 1 {
					continue
				}
				// (26, grouped): o - sum_j x_ijk >= 0
				if err := m.P.AddGE(rowOusage.Key(t, i, k), b.idx, b.val, 0); err != nil {
					return err
				}
			}
			// (27): sum_{i,j} x - o >= 0
			if err := m.P.AddGE(rowOwit.Key(t, k), all.idx, all.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addWConstraints emits the w linearization: the compact eq. (31) —
// w_p >= sum_{p1<p} y_t1p1 + sum_{p2>=p} y_t2p2 - 1 — or, with
// WPerProduct, the exact per-product eqs. (4)-(5).
func (m *Model) addWConstraints(b *rowBuf) error {
	g := m.Inst.Graph
	if !m.Opt.WPerProduct {
		for p := 2; p <= m.N; p++ {
			for _, e := range g.TaskEdges() {
				b.reset()
				b.add(m.W[[3]int{p, e.From, e.To}], -1)
				for p1 := 1; p1 < p; p1++ {
					b.add(m.Y[[2]int{e.From, p1}], 1)
				}
				for p2 := p; p2 <= m.N; p2++ { // paper prints p2 < N; Figure 4 shows p2 <= N
					b.add(m.Y[[2]int{e.To, p2}], 1)
				}
				if err := m.P.AddLE(rowWlin.Key(p, e.From, e.To), b.idx, b.val, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// per-product: v = y_t1p1 * y_t2p2 linearized, then (5):
	// sum_{p1<p<=p2} v = w_p
	for _, e := range g.TaskEdges() {
		for p1 := 1; p1 < m.N; p1++ {
			y1 := m.Y[[2]int{e.From, p1}]
			for p2 := p1 + 1; p2 <= m.N; p2++ {
				y2 := m.Y[[2]int{e.To, p2}]
				v := m.Prod[[4]int{e.From, e.To, p1, p2}]
				if err := m.P.AddLE(rowVlo.Key(e.From, p1, e.To, p2), []int{y1, y2, v}, []float64{1, 1, -1}, 1); err != nil {
					return err
				}
				if m.Opt.Linearization == LinGlover {
					if err := m.P.AddLE(rowV1.Key(e.From, p1, e.To, p2), []int{v, y1}, []float64{1, -1}, 0); err != nil {
						return err
					}
					if err := m.P.AddLE(rowV2.Key(e.From, p1, e.To, p2), []int{v, y2}, []float64{1, -1}, 0); err != nil {
						return err
					}
				} else {
					if err := m.P.AddLE(rowVhi.Key(e.From, p1, e.To, p2), []int{v, y1, y2}, []float64{2, -1, -1}, 0); err != nil {
						return err
					}
				}
			}
		}
	}
	for p := 2; p <= m.N; p++ {
		for _, e := range g.TaskEdges() {
			b.reset()
			b.add(m.W[[3]int{p, e.From, e.To}], -1)
			for p1 := 1; p1 < p; p1++ {
				for p2 := p; p2 <= m.N; p2++ {
					b.add(m.Prod[[4]int{e.From, e.To, p1, p2}], 1)
				}
			}
			if err := m.P.AddEQ(rowWsum.Key(p, e.From, e.To), b.idx, b.val, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// addTightening emits the cuts of Section 6: (28), (29) with the
// off-by-one corrected to p < p1, (30), and (32).
func (m *Model) addTightening(b *rowBuf) error {
	g := m.Inst.Graph
	cuts := m.Opt.Cuts
	for _, e := range g.TaskEdges() {
		for p1 := 2; p1 <= m.N; p1++ {
			w := m.W[[3]int{p1, e.From, e.To}]
			if cuts.Has(Cut28) {
				// (28): w_p1 + sum_{p1<=p<=N} y_t1p <= 1
				b.reset()
				b.add(w, 1)
				for p := p1; p <= m.N; p++ {
					b.add(m.Y[[2]int{e.From, p}], 1)
				}
				if err := m.P.AddLE(rowT28.Key(p1, e.From, e.To), b.idx, b.val, 1); err != nil {
					return err
				}
			}
			if cuts.Has(Cut29) {
				// (29): w_p1 + sum_{1<=p<p1} y_t2p <= 1
				b.reset()
				b.add(w, 1)
				for p := 1; p < p1; p++ {
					b.add(m.Y[[2]int{e.To, p}], 1)
				}
				if err := m.P.AddLE(rowT29.Key(p1, e.From, e.To), b.idx, b.val, 1); err != nil {
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
					cols := []int{m.Y[[2]int{e.From, p}], m.Y[[2]int{e.To, p}], m.W[[3]int{p1, e.From, e.To}]}
					if err := m.P.AddLE(rowT30.Key(p, p1, e.From, e.To), cols, []float64{1, 1, 1}, 2); err != nil {
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
					cols := []int{m.O[[2]int{t, k}], m.Y[[2]int{t, p}], m.U[[2]int{p, k}]}
					if err := m.P.AddLE(rowT32.Key(t, k, p), cols, []float64{1, 1, -1}, 1); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
