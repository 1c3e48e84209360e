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
// A Problem names its rows and columns with Keys (key.go): a registered
// Family and up to five integers, formatted only when a name is read,
// or a literal Name. Its rows live in one flat, pointer-free row store
// (rowstore.go) that solvers, clones and the exact layer read in place.
// A RowCount (rowcount.go) takes rows as AddRow does but stores none,
// so a caller can learn a problem's size first and reserve its arrays
// exactly.
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
//
// Rows and columns are named by Keys, formatted only when RowName or
// VarName reads them. The rows live in one flat rowStore that AddRow
// appends to; a Solver, a Clone and the exact layer read it in place.
type Problem struct {
	obj     []float64
	lo, hi  []float64
	colKeys []key

	rows    rowStore
	rowKeys []key
	// names holds the literal names of Name keys, in the order added.
	names []string
}

// AddVar appends a variable with the given objective coefficient and
// bounds, returning its column index.
func (p *Problem) AddVar(k Key, obj, lo, hi float64) int {
	p.colKeys = append(grow(p.colKeys, 1), p.store(k))
	p.obj = append(grow(p.obj, 1), obj)
	p.lo = append(grow(p.lo, 1), lo)
	p.hi = append(grow(p.hi, 1), hi)
	return len(p.obj) - 1
}

// AddBinary appends a 0-1 variable relaxed to [0,1].
func (p *Problem) AddBinary(k Key, obj float64) int {
	return p.AddVar(k, obj, 0, 1)
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return p.rows.len() }

// VarKey returns the key of variable j.
func (p *Problem) VarKey(j int) Key { return p.load(p.colKeys[j]) }

// RowKey returns the key of row i.
func (p *Problem) RowKey(i int) Key { return p.load(p.rowKeys[i]) }

// VarName formats the name of variable j.
func (p *Problem) VarName(j int) string { return p.VarKey(j).String() }

// RowName formats the name of row i.
func (p *Problem) RowName(i int) string { return p.RowKey(i).String() }

// store turns k into the pointer-free form the problem keeps.
func (p *Problem) store(k Key) key {
	if k.fam != 0 || k.name == "" {
		return key{fam: k.fam, a: k.a}
	}
	p.names = append(p.names, k.name)
	return key{a: [maxSlots]int32{int32(len(p.names))}}
}

// load turns a stored key back into a Key.
func (p *Problem) load(k key) Key {
	if k.fam != 0 || k.a[0] == 0 {
		return Key{fam: k.fam, a: k.a}
	}
	return Key{name: p.names[k.a[0]-1]}
}

// Row exposes the sparse coefficients of row i: column indices and
// values, in ascending index order. The slices are the problem's own
// storage — callers must treat them as read-only. Together with
// NumVars/NumRows/Obj/Bounds/RowRange this makes *Problem satisfy the
// exact-certification layer's Source interface.
func (p *Problem) Row(i int) (idx []int, val []float64) { return p.rows.row(i) }

// Bounds returns the bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lo[j], p.hi[j] }

// Obj returns the objective coefficient of variable j.
func (p *Problem) Obj(j int) float64 { return p.obj[j] }

// AddRow appends the range constraint lo <= sum coef_j x_j <= hi.
// Duplicate indices in idx are summed in the order given, and entries
// that are or sum to zero are dropped; the stored row lists its columns
// in ascending order. Use Inf / -Inf for one-sided constraints and
// lo == hi for equalities. A row costs time linear in its length when
// its indices are strictly ascending; other rows are insertion-sorted
// first, which suits rows of a handful of entries.
func (p *Problem) AddRow(k Key, idx []int, coef []float64, lo, hi float64) error {
	if err := checkRow(k, idx, coef, lo, hi, len(p.obj)); err != nil {
		return err
	}
	p.rows.add(idx, coef, lo, hi)
	p.rowKeys = append(grow(p.rowKeys, 1), p.store(k))
	return nil
}

// checkRow rejects a row that AddRow cannot store in a problem of vars
// columns.
func checkRow(k Key, idx []int, coef []float64, lo, hi float64, vars int) error {
	if len(idx) != len(coef) {
		return fmt.Errorf("lp: AddRow %q: %d indices vs %d coefficients", k, len(idx), len(coef))
	}
	if lo > hi {
		return fmt.Errorf("lp: AddRow %q: empty range [%v,%v]", k, lo, hi)
	}
	for _, j := range idx {
		if j < 0 || j >= vars {
			return fmt.Errorf("lp: AddRow %q: variable %d out of range", k, j)
		}
	}
	return nil
}

// ReserveVars makes room for n more columns, so that adding them moves
// no array.
func (p *Problem) ReserveVars(n int) {
	p.colKeys = reserve(p.colKeys, n)
	p.obj = reserve(p.obj, n)
	p.lo = reserve(p.lo, n)
	p.hi = reserve(p.hi, n)
}

// ReserveRows makes room for the rows c counted, so that adding them
// moves no array. Rows added after those grow the arrays by doubling.
func (p *Problem) ReserveRows(c *RowCount) {
	p.rows.reserve(c.rows, c.room)
	p.rowKeys = reserve(p.rowKeys, c.rows)
}

// AddLE appends sum coef_j x_j <= rhs.
func (p *Problem) AddLE(k Key, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(k, idx, coef, -Inf, rhs)
}

// AddGE appends sum coef_j x_j >= rhs.
func (p *Problem) AddGE(k Key, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(k, idx, coef, rhs, Inf)
}

// AddEQ appends sum coef_j x_j == rhs.
func (p *Problem) AddEQ(k Key, idx []int, coef []float64, rhs float64) error {
	return p.AddRow(k, idx, coef, rhs, rhs)
}

// Clone returns a copy of p that can be extended independently
// (AddVar/AddRow on the clone do not affect p) — the mechanism the
// MILP layer uses to build a cut-augmented private model without
// mutating the caller's problem. The clone reads p's rows and keys in
// place; its first AddRow or AddVar copies them, because the shared
// arrays are handed over full.
func (p *Problem) Clone() *Problem {
	return &Problem{
		obj:     append([]float64(nil), p.obj...),
		lo:      append([]float64(nil), p.lo...),
		hi:      append([]float64(nil), p.hi...),
		colKeys: full(p.colKeys),
		rows:    p.rows.full(),
		rowKeys: full(p.rowKeys),
		names:   full(p.names),
	}
}

// Eval computes a_i · x for row i.
func (p *Problem) Eval(i int, x []float64) float64 {
	s := 0.0
	idx, val := p.rows.row(i)
	for k, j := range idx {
		s += val[k] * x[j]
	}
	return s
}

// RowRange returns the [lo, hi] range of row i.
func (p *Problem) RowRange(i int) (lo, hi float64) { return p.rows.lo[i], p.rows.hi[i] }

// Feasible reports whether x satisfies all rows and bounds within tol.
func (p *Problem) Feasible(x []float64, tol float64) error {
	if len(x) != len(p.obj) {
		return fmt.Errorf("lp: Feasible: len(x)=%d, want %d", len(x), len(p.obj))
	}
	for j := range x {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return fmt.Errorf("lp: variable %d (%s) = %v outside [%v,%v]", j, p.VarName(j), x[j], p.lo[j], p.hi[j])
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		v := p.Eval(i, x)
		if lo, hi := p.RowRange(i); v < lo-tol || v > hi+tol {
			return fmt.Errorf("lp: row %d (%s) = %v outside [%v,%v]", i, p.RowName(i), v, lo, hi)
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
	return Stats{Vars: len(p.obj), Rows: p.rows.len(), NNZ: len(p.rows.idx)}
}
