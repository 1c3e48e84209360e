// Package lp implements a sparse revised bounded-variable simplex
// solver for linear programs of the form
//
//	minimize   c·x
//	subject to Lo_i <= a_i·x <= Hi_i   (range constraints)
//	           l_j  <= x_j  <= u_j     (variable bounds)
//
// It provides primal and dual simplex pivoting with warm starts after
// bound changes, which is the substrate the branch-and-bound MILP
// solver in internal/milp is built on — the role lp_solve plays in
// Kaul & Vemuri (DATE 1998).
//
// The constraint matrix is kept in sparse column form and the basis as
// a sparse LU factorization updated by an eta file (revised.go, lu.go).
// A dense-tableau engine (dense_test.go) survives only as the reference
// the package's differential tests compare the revised engine against,
// plugged into the same Solver through its engine seam.
package lp

import (
	"fmt"
	"math"
)

// Inf is positive infinity, for unbounded sides of constraints and
// variables.
var Inf = math.Inf(1)

// Problem is a linear program under construction. The zero value is an
// empty minimization problem.
type Problem struct {
	names  []string
	obj    []float64
	lo, hi []float64

	rows     []row
	rowNames []string

	// scratchIdx and scratchVal are AddRow's merge buffers.
	scratchIdx []int
	scratchVal []float64
}

type row struct {
	idx []int
	val []float64
	lo  float64
	hi  float64
}

// AddVar appends a variable with the given objective coefficient and
// bounds, returning its column index.
func (p *Problem) AddVar(name string, obj, lo, hi float64) int {
	p.names = append(p.names, name)
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	return len(p.obj) - 1
}

// AddBinary appends a 0-1 variable relaxed to [0,1].
func (p *Problem) AddBinary(name string, obj float64) int {
	return p.AddVar(name, obj, 0, 1)
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// VarName returns the name of variable j.
func (p *Problem) VarName(j int) string { return p.names[j] }

// RowName returns the name of row i.
func (p *Problem) RowName(i int) string { return p.rowNames[i] }

// RowNNZ returns the number of nonzero coefficients in row i.
func (p *Problem) RowNNZ(i int) int { return len(p.rows[i].idx) }

// Row exposes the sparse coefficients of row i: column indices and
// values, in ascending index order. The slices are the problem's own
// storage — callers must treat them as read-only. Together with
// NumVars/NumRows/Obj/Bounds/RowRange this makes *Problem satisfy the
// exact-certification layer's Source interface.
func (p *Problem) Row(i int) (idx []int, val []float64) {
	return p.rows[i].idx, p.rows[i].val
}

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lo[j], p.hi[j] }

// SetVarBounds replaces the bounds of variable j. Solvers snapshot a
// problem at NewSolver time, so changing bounds affects only solvers
// created afterwards.
func (p *Problem) SetVarBounds(j int, lo, hi float64) error {
	if j < 0 || j >= len(p.obj) {
		return fmt.Errorf("lp: SetVarBounds: variable %d out of range", j)
	}
	if lo > hi {
		return fmt.Errorf("lp: SetVarBounds: empty range [%v,%v]", lo, hi)
	}
	p.lo[j], p.hi[j] = lo, hi
	return nil
}

// Obj returns the objective coefficient of variable j.
func (p *Problem) Obj(j int) float64 { return p.obj[j] }

// AddRow appends the range constraint lo <= sum coef_j x_j <= hi.
// Duplicate indices in idx are summed in the order given, and entries
// that are or sum to zero are dropped; the stored row lists its columns
// in ascending order and is sized exactly. Use Inf / -Inf for one-sided
// constraints and lo == hi for equalities. A row costs time linear in
// its length when its indices are strictly ascending; other rows are
// insertion-sorted first, which suits rows of a handful of entries.
func (p *Problem) AddRow(name string, idx []int, coef []float64, lo, hi float64) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("lp: AddRow %q: %d indices vs %d coefficients", name, len(idx), len(coef))
	}
	if lo > hi {
		return fmt.Errorf("lp: AddRow %q: empty range [%v,%v]", name, lo, hi)
	}
	ascending := true
	for k, j := range idx {
		if j < 0 || j >= len(p.obj) {
			return fmt.Errorf("lp: AddRow %q: variable %d out of range", name, j)
		}
		if k > 0 && j <= idx[k-1] {
			ascending = false
		}
	}
	// merge a sorted copy of the row in place: each column's entries
	// sum from zero in input order, and zero sums drop out
	si := append(p.scratchIdx[:0], idx...)
	sv := append(p.scratchVal[:0], coef...)
	if !ascending {
		sortRow(si, sv)
	}
	n := 0
	for k := 0; k < len(si); {
		v, j := 0.0, si[k]
		for ; k < len(si) && si[k] == j; k++ {
			v += sv[k]
		}
		if v != 0 {
			si[n], sv[n] = j, v
			n++
		}
	}
	p.scratchIdx, p.scratchVal = si, sv
	r := row{lo: lo, hi: hi}
	if n > 0 {
		r.idx, r.val = make([]int, n), make([]float64, n)
		copy(r.idx, si)
		copy(r.val, sv)
	}
	p.rows = append(p.rows, r)
	p.rowNames = append(p.rowNames, name)
	return nil
}

// sortRow stable-sorts a row by column with an insertion sort, so
// equal columns keep their order.
func sortRow(idx []int, val []float64) {
	for a := 1; a < len(idx); a++ {
		j, v := idx[a], val[a]
		b := a
		for ; b > 0 && idx[b-1] > j; b-- {
			idx[b], val[b] = idx[b-1], val[b-1]
		}
		idx[b], val[b] = j, v
	}
}

// AddLE appends sum coef_j x_j <= rhs.
func (p *Problem) AddLE(name string, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(name, idx, coef, -Inf, rhs)
}

// AddGE appends sum coef_j x_j >= rhs.
func (p *Problem) AddGE(name string, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(name, idx, coef, rhs, Inf)
}

// AddEQ appends sum coef_j x_j == rhs.
func (p *Problem) AddEQ(name string, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(name, idx, coef, rhs, rhs)
}

// Clone returns a copy of p that can be extended independently
// (AddVar/AddRow on the clone do not affect p) — the mechanism the
// MILP layer uses to build a cut-augmented private model without
// mutating the caller's problem. Row coefficient storage is shared:
// rows are immutable once added.
func (p *Problem) Clone() *Problem {
	return &Problem{
		names:    append([]string(nil), p.names...),
		obj:      append([]float64(nil), p.obj...),
		lo:       append([]float64(nil), p.lo...),
		hi:       append([]float64(nil), p.hi...),
		rows:     append([]row(nil), p.rows...),
		rowNames: append([]string(nil), p.rowNames...),
	}
}

// Eval computes a_i · x for row i.
func (p *Problem) Eval(i int, x []float64) float64 {
	s := 0.0
	r := p.rows[i]
	for k, j := range r.idx {
		s += r.val[k] * x[j]
	}
	return s
}

// RowRange returns the [lo, hi] range of row i.
func (p *Problem) RowRange(i int) (lo, hi float64) { return p.rows[i].lo, p.rows[i].hi }

// Feasible reports whether x satisfies all rows and bounds within tol.
func (p *Problem) Feasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("lp: Feasible: len(x)=%d, want %d", len(x), len(p.obj))
	}
	for j := range x {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return fmt.Errorf("lp: variable %d (%s) = %v outside [%v,%v]", j, p.names[j], x[j], p.lo[j], p.hi[j])
		}
	}
	for i := range p.rows {
		v := p.Eval(i, x)
		if v < p.rows[i].lo-tol || v > p.rows[i].hi+tol {
			return fmt.Errorf("lp: row %d (%s) = %v outside [%v,%v]", i, p.rowNames[i], v, p.rows[i].lo, p.rows[i].hi)
		}
	}
	return nil
}

// Objective computes c·x.
func (p *Problem) Objective(x []float64) float64 {
	s := 0.0
	for j, c := range p.obj {
		if c != 0 {
			s += c * x[j]
		}
	}
	return s
}

// Stats summarizes the model size the way the paper's tables report it.
type Stats struct {
	Vars int // structural variables
	Rows int // constraints
	NNZ  int // nonzero coefficients
}

// Stats returns the model size.
func (p *Problem) Stats() Stats {
	nnz := 0
	for i := range p.rows {
		nnz += len(p.rows[i].idx)
	}
	return Stats{Vars: len(p.obj), Rows: len(p.rows), NNZ: nnz}
}
