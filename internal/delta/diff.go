// Package delta implements delta-aware incremental re-solve: it diffs
// a freshly built core model against a cached build of a neighboring
// instance, classifies the edit, and dispatches the cheapest sound
// re-solve path — reusing the cached presolve, the root LP basis (dual
// warm start via solver clone + SetBound/SetRowBounds/SetObj edits)
// and, when the edit provably cannot improve the cached optimum, the
// cached conclusion itself. Every fresh service solve runs through it —
// amends and batch warm chains (sweeps included) warm from a cached
// neighbor — and its cache of completed results is also the service's
// exact-hit result cache.
//
// Soundness contract (see DESIGN.md for the full lattice): every fast
// path re-renders its verdict against the NEW problem — warm solves
// validate incumbents and certificates against the new rows, primes
// are re-verified with partition.Verify before they prune anything,
// and the conclusion-reuse path fires only on a pure tightening whose
// surviving incumbent pins the optimum from both sides. A structural
// edit falls back to a cold solve.
package delta

import "repro/internal/lp"

// Class is the edit classification of a diff between two built
// problems, ordered from cheapest to costliest re-solve path.
type Class int

const (
	// ClassNone means the post-presolve problems are identical.
	ClassNone Class = iota
	// ClassBounds means only variable bounds and/or row ranges differ
	// (capacity, scratch-memory and α edits land here: all three enter
	// the model as row ranges).
	ClassBounds
	// ClassObjective means only objective coefficients differ.
	ClassObjective
	// ClassBoundsObjective combines the two previous classes.
	ClassBoundsObjective
	// ClassStructural means the variable or row sets, names or
	// coefficients differ (L/N changes, tasks added or removed, …);
	// nothing of the cached solve can be soundly reused but its
	// solution as a candidate, so the dispatcher goes cold.
	ClassStructural
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassBounds:
		return "bounds"
	case ClassObjective:
		return "objective"
	case ClassBoundsObjective:
		return "bounds+objective"
	default:
		return "structural"
	}
}

// warmable reports whether the class admits the root-basis warm start
// (the cached solver can be morphed into the new problem by pure
// bound/range/objective edits).
func (c Class) warmable() bool { return c <= ClassBoundsObjective }

// VarBoundChange records the new bounds of one structural variable.
type VarBoundChange struct {
	Col    int
	Lo, Hi float64
}

// RowBoundChange records the new range of one row.
type RowBoundChange struct {
	Row    int
	Lo, Hi float64
}

// ObjChange records the new objective coefficient of one variable.
type ObjChange struct {
	Col int
	C   float64
}

// Diff is the classified difference between an old and a new problem.
type Diff struct {
	Class     Class
	VarBounds []VarBoundChange
	RowBounds []RowBoundChange
	Obj       []ObjChange
	// Tightens reports that every change shrinks the feasible region
	// (new bounds ⊆ old bounds for every edited variable and row) and
	// the objective is untouched — the monotone direction under which a
	// cached minimization conclusion can only stay valid or get worse,
	// never better. Trivially true for ClassNone.
	Tightens bool
	// Relaxes is the opposite monotone direction: every change grows
	// the feasible region and the objective is untouched, so a cached
	// optimal solution remains feasible (an upper bound) but a better
	// one may have appeared.
	Relaxes bool
}

// DiffProblems compares the cached base problem against the freshly
// built next one and classifies the edit. Rows and columns are matched
// by their keys, which compare without formatting a name. Both must be in their final
// (post-presolve) form; comparing a presolved problem against an
// unpresolved one just degrades the classification, never its
// soundness.
func DiffProblems(base, next *lp.Problem) Diff {
	d := Diff{Tightens: true, Relaxes: true}
	if base.NumVars() != next.NumVars() || base.NumRows() != next.NumRows() {
		return Diff{Class: ClassStructural}
	}
	for j := 0; j < next.NumVars(); j++ {
		if base.VarKey(j) != next.VarKey(j) {
			return Diff{Class: ClassStructural}
		}
		olo, ohi := base.Bounds(j)
		nlo, nhi := next.Bounds(j)
		if olo != nlo || ohi != nhi {
			d.VarBounds = append(d.VarBounds, VarBoundChange{Col: j, Lo: nlo, Hi: nhi})
			d.Tightens = d.Tightens && nlo >= olo && nhi <= ohi
			d.Relaxes = d.Relaxes && nlo <= olo && nhi >= ohi
		}
		if oc, nc := base.Obj(j), next.Obj(j); oc != nc {
			d.Obj = append(d.Obj, ObjChange{Col: j, C: nc})
		}
	}
	for i := 0; i < next.NumRows(); i++ {
		if base.RowKey(i) != next.RowKey(i) {
			return Diff{Class: ClassStructural}
		}
		oidx, oval := base.Row(i)
		nidx, nval := next.Row(i)
		if len(oidx) != len(nidx) {
			return Diff{Class: ClassStructural}
		}
		for k := range nidx {
			if oidx[k] != nidx[k] || oval[k] != nval[k] {
				return Diff{Class: ClassStructural}
			}
		}
		olo, ohi := base.RowRange(i)
		nlo, nhi := next.RowRange(i)
		if olo != nlo || ohi != nhi {
			d.RowBounds = append(d.RowBounds, RowBoundChange{Row: i, Lo: nlo, Hi: nhi})
			d.Tightens = d.Tightens && nlo >= olo && nhi <= ohi
			d.Relaxes = d.Relaxes && nlo <= olo && nhi >= ohi
		}
	}
	hasBounds := len(d.VarBounds) > 0 || len(d.RowBounds) > 0
	hasObj := len(d.Obj) > 0
	if hasObj {
		// monotone reasoning is about the feasible region only; an
		// objective edit voids both directions
		d.Tightens, d.Relaxes = false, false
	}
	switch {
	case hasBounds && hasObj:
		d.Class = ClassBoundsObjective
	case hasObj:
		d.Class = ClassObjective
	case hasBounds:
		d.Class = ClassBounds
	default:
		d.Class = ClassNone
	}
	return d
}
