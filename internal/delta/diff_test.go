package delta

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/lp"
	"repro/internal/randgraph"
)

func twoVarProblem(objY float64, hiX, cap float64) *lp.Problem {
	p := &lp.Problem{}
	x := p.AddVar(lp.Name("x"), 1, 0, hiX)
	y := p.AddVar(lp.Name("y"), objY, 0, 1)
	if err := p.AddLE(lp.Name("cap"), []int{x, y}, []float64{2, 3}, cap); err != nil {
		panic(err)
	}
	return p
}

func TestDiffClassification(t *testing.T) {
	base := twoVarProblem(5, 4, 10)

	t.Run("none", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(5, 4, 10))
		if d.Class != ClassNone || !d.Tightens || !d.Relaxes {
			t.Fatalf("got %+v", d)
		}
	})
	t.Run("bounds-tighten", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(5, 3, 8))
		if d.Class != ClassBounds {
			t.Fatalf("class %v", d.Class)
		}
		if !d.Tightens || d.Relaxes {
			t.Fatalf("directions %+v", d)
		}
		if len(d.VarBounds) != 1 || d.VarBounds[0] != (VarBoundChange{Col: 0, Lo: 0, Hi: 3}) {
			t.Fatalf("var bounds %+v", d.VarBounds)
		}
		if len(d.RowBounds) != 1 || d.RowBounds[0].Row != 0 || d.RowBounds[0].Hi != 8 {
			t.Fatalf("row bounds %+v", d.RowBounds)
		}
	})
	t.Run("bounds-relax", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(5, 6, 12))
		if d.Class != ClassBounds || d.Tightens || !d.Relaxes {
			t.Fatalf("got %+v", d)
		}
	})
	t.Run("bounds-mixed", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(5, 3, 12))
		if d.Class != ClassBounds || d.Tightens || d.Relaxes {
			t.Fatalf("got %+v", d)
		}
	})
	t.Run("objective", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(7, 4, 10))
		if d.Class != ClassObjective || d.Tightens || d.Relaxes {
			t.Fatalf("got %+v", d)
		}
		if len(d.Obj) != 1 || d.Obj[0] != (ObjChange{Col: 1, C: 7}) {
			t.Fatalf("obj %+v", d.Obj)
		}
	})
	t.Run("bounds+objective", func(t *testing.T) {
		d := DiffProblems(base, twoVarProblem(7, 4, 8))
		if d.Class != ClassBoundsObjective {
			t.Fatalf("class %v", d.Class)
		}
		if !d.Class.warmable() {
			t.Fatal("bounds+objective must be warmable")
		}
	})
	t.Run("structural-coef", func(t *testing.T) {
		p := &lp.Problem{}
		x := p.AddVar(lp.Name("x"), 1, 0, 4)
		y := p.AddVar(lp.Name("y"), 5, 0, 1)
		if err := p.AddLE(lp.Name("cap"), []int{x, y}, []float64{2, 4}, 10); err != nil {
			t.Fatal(err)
		}
		d := DiffProblems(base, p)
		if d.Class != ClassStructural || d.Class.warmable() {
			t.Fatalf("got %+v", d)
		}
	})
	t.Run("structural-shape", func(t *testing.T) {
		p := &lp.Problem{}
		p.AddVar(lp.Name("x"), 1, 0, 4)
		d := DiffProblems(base, p)
		if d.Class != ClassStructural {
			t.Fatalf("class %v", d.Class)
		}
	})
	t.Run("structural-name", func(t *testing.T) {
		p := &lp.Problem{}
		x := p.AddVar(lp.Name("x"), 1, 0, 4)
		y := p.AddVar(lp.Name("q"), 5, 0, 1)
		if err := p.AddLE(lp.Name("cap"), []int{x, y}, []float64{2, 3}, 10); err != nil {
			t.Fatal(err)
		}
		if d := DiffProblems(base, p); d.Class != ClassStructural {
			t.Fatalf("class %v", d.Class)
		}
	})
	t.Run("one-sided-rows", func(t *testing.T) {
		// -inf lower sides must not break the monotone flags
		p := twoVarProblem(5, 4, 10)
		d := DiffProblems(base, p)
		if lo, _ := p.RowRange(0); !math.IsInf(lo, -1) {
			t.Fatal("expected one-sided row")
		}
		if d.Class != ClassNone {
			t.Fatalf("class %v", d.Class)
		}
	})
}

// TestDiffProblemsZeroAlloc checks that diffing two identical builds of
// the largest paper row, T4 g6 N3 L0, allocates nothing: rows and
// columns are matched by key, so no name is formatted. On two builds
// that differ (L 0 against L 1) keys must agree exactly where the
// formatted names do.
func TestDiffProblemsZeroAlloc(t *testing.T) {
	build := func(l int) *lp.Problem {
		t.Helper()
		alloc, err := library.PaperAllocation(library.DefaultLibrary(), 2, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		inst := core.Instance{Graph: randgraph.MustPaper(6), Alloc: alloc, Device: library.XC4010()}
		m, err := core.Build(inst, core.Options{N: 3, L: l, Tightened: true, ExactSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		return m.P
	}
	base, next := build(0), build(0)
	var d Diff
	if a := testing.AllocsPerRun(5, func() { d = DiffProblems(base, next) }); a != 0 {
		t.Fatalf("DiffProblems allocates %.0f times on identical builds, want 0", a)
	}
	if d.Class != ClassNone {
		t.Fatalf("identical builds diff as %v", d.Class)
	}
	other := build(1)
	for j := 0; j < min(base.NumVars(), other.NumVars()); j++ {
		if (base.VarKey(j) == other.VarKey(j)) != (base.VarName(j) == other.VarName(j)) {
			t.Fatalf("column %d: keys %v, %v disagree with names %q, %q", j, base.VarKey(j), other.VarKey(j), base.VarName(j), other.VarName(j))
		}
	}
	for i := 0; i < min(base.NumRows(), other.NumRows()); i++ {
		if (base.RowKey(i) == other.RowKey(i)) != (base.RowName(i) == other.RowName(i)) {
			t.Fatalf("row %d: keys %v, %v disagree with names %q, %q", i, base.RowKey(i), other.RowKey(i), base.RowName(i), other.RowName(i))
		}
	}
}
