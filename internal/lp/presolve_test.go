package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPresolveSingletonRow(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 10)
	_ = p.AddGE(Name("g"), []int{x}, []float64{2}, 6) // x >= 3
	res := p.Presolve()
	if res.Infeasible {
		t.Fatal("feasible problem declared infeasible")
	}
	if p.NumRows() != 0 {
		t.Fatalf("rows = %d, want 0", p.NumRows())
	}
	if lo, _ := p.Bounds(x); math.Abs(lo-3) > 1e-9 {
		t.Fatalf("lo = %v, want 3", lo)
	}
}

func TestPresolveSingletonNegativeCoef(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, -10, 10)
	_ = p.AddGE(Name("g"), []int{x}, []float64{-1}, 4) // -x >= 4 -> x <= -4
	res := p.Presolve()
	if res.Infeasible {
		t.Fatal("unexpected infeasible")
	}
	if _, hi := p.Bounds(x); math.Abs(hi-(-4)) > 1e-9 {
		t.Fatalf("hi = %v, want -4", hi)
	}
}

func TestPresolveRedundantRow(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 1)
	y := p.AddVar(Name("y"), 1, 0, 1)
	_ = p.AddLE(Name("r"), []int{x, y}, []float64{1, 1}, 5) // never binds
	res := p.Presolve()
	if p.NumRows() != 0 || res.RowsRemoved != 1 {
		t.Fatalf("rows = %d removed = %d", p.NumRows(), res.RowsRemoved)
	}
}

func TestPresolveDetectsInfeasible(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 1)
	y := p.AddVar(Name("y"), 1, 0, 1)
	_ = p.AddGE(Name("g"), []int{x, y}, []float64{1, 1}, 3)
	res := p.Presolve()
	if !res.Infeasible {
		t.Fatal("infeasibility missed")
	}
}

func TestPresolvePropagatesBounds(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 10)
	y := p.AddVar(Name("y"), 1, 0, 10)
	_ = p.AddLE(Name("r"), []int{x, y}, []float64{1, 1}, 4)
	_ = p.AddGE(Name("g"), []int{x}, []float64{1}, 3) // singleton: x >= 3
	res := p.Presolve()
	if res.Infeasible {
		t.Fatal("unexpected infeasible")
	}
	// x >= 3 and x + y <= 4 imply y <= 1
	if _, hi := p.Bounds(y); hi > 1+1e-6 {
		t.Fatalf("y hi = %v, want <= 1", hi)
	}
}

func TestPresolveEmptyRow(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 1)
	_ = p.AddLE(Name("z"), nil, nil, 1) // 0 <= 1: redundant
	res := p.Presolve()
	if res.Infeasible || p.NumRows() != 0 {
		t.Fatalf("res=%+v rows=%d", res, p.NumRows())
	}
	_ = p.AddGE(Name("z2"), nil, nil, 1) // 0 >= 1: impossible
	if res := p.Presolve(); !res.Infeasible {
		t.Fatal("empty impossible row accepted")
	}
	_ = x
}

func TestTightenBinary(t *testing.T) {
	p := &Problem{}
	x := p.AddBinary(Name("x"), 1)
	y := p.AddBinary(Name("y"), 1)
	p.lo[x] = 0.3 // as if tightened by propagation
	p.hi[y] = 0.6
	if err := p.TightenBinary([]int{x, y}); err != nil {
		t.Fatal(err)
	}
	if lo, _ := p.Bounds(x); lo != 1 {
		t.Fatalf("x lo = %v", lo)
	}
	if _, hi := p.Bounds(y); hi != 0 {
		t.Fatalf("y hi = %v", hi)
	}
	z := p.AddBinary(Name("z"), 1)
	p.lo[z], p.hi[z] = 0.3, 0.6
	if err := p.TightenBinary([]int{z}); err == nil {
		t.Fatal("empty binary domain accepted")
	}
}

// Property: presolve preserves the LP optimum on random feasible LPs.
func TestPropertyPresolvePreservesOptimum(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p1, _ := randomPrimalDual(r)
		p2, _ := randomPrimalDual(rand.New(rand.NewSource(seed)))
		res := p2.Presolve()
		if res.Infeasible {
			return false // these instances are feasible by construction
		}
		s1, err := NewSolver(p1)
		if err != nil {
			return false
		}
		if p2.NumVars() == 0 {
			return true
		}
		s2, err := NewSolver(p2)
		if err != nil {
			return false
		}
		if s1.Solve() != StatusOptimal || s2.Solve() != StatusOptimal {
			return false
		}
		return math.Abs(s1.Objective()-s2.Objective()) < 1e-5*(1+math.Abs(s1.Objective()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
