package lp

import (
	"math"
	"math/rand"
	"testing"
)

// editSpec is one randomly generated LP plus an edit script, applied
// both to a warm solver (SetBound/SetRowBounds/SetObj + ReOptimize)
// and to a freshly built problem (cold Solve); the two must agree.
type editSpec struct {
	n, m   int
	obj    []float64
	lo, hi []float64
	rows   [][]float64 // dense coefficient rows
	rlo    []float64
	rhi    []float64
}

func (sp *editSpec) problem() *Problem {
	p := &Problem{}
	for j := 0; j < sp.n; j++ {
		p.AddVar(Name("x"), sp.obj[j], sp.lo[j], sp.hi[j])
	}
	for i := 0; i < sp.m; i++ {
		var idx []int
		var val []float64
		for j, v := range sp.rows[i] {
			if v != 0 {
				idx = append(idx, j)
				val = append(val, v)
			}
		}
		if err := p.AddRow(Name("r"), idx, val, sp.rlo[i], sp.rhi[i]); err != nil {
			panic(err)
		}
	}
	return p
}

func genSpec(rnd *rand.Rand) *editSpec {
	sp := &editSpec{n: 3 + rnd.Intn(5), m: 2 + rnd.Intn(5)}
	for j := 0; j < sp.n; j++ {
		sp.obj = append(sp.obj, float64(rnd.Intn(11)-5))
		sp.lo = append(sp.lo, 0)
		sp.hi = append(sp.hi, float64(1+rnd.Intn(4)))
	}
	for i := 0; i < sp.m; i++ {
		row := make([]float64, sp.n)
		for j := range row {
			if rnd.Intn(2) == 0 {
				row[j] = float64(rnd.Intn(7) - 3)
			}
		}
		sp.rows = append(sp.rows, row)
		switch rnd.Intn(3) {
		case 0: // <=
			sp.rlo = append(sp.rlo, math.Inf(-1))
			sp.rhi = append(sp.rhi, float64(rnd.Intn(10)))
		case 1: // >=
			sp.rlo = append(sp.rlo, float64(-rnd.Intn(6)))
			sp.rhi = append(sp.rhi, math.Inf(1))
		default: // range
			lo := float64(-rnd.Intn(4))
			sp.rlo = append(sp.rlo, lo)
			sp.rhi = append(sp.rhi, lo+float64(rnd.Intn(8)))
		}
	}
	return sp
}

// mutate applies a random edit script to the spec and returns the
// solver edits to replay on a warm solver.
func (sp *editSpec) mutate(rnd *rand.Rand) (apply func(*Solver)) {
	var edits []func(*Solver)
	for k := 0; k < 1+rnd.Intn(3); k++ {
		switch rnd.Intn(3) {
		case 0: // variable bound change
			j := rnd.Intn(sp.n)
			lo := float64(rnd.Intn(2))
			hi := lo + float64(rnd.Intn(3))
			sp.lo[j], sp.hi[j] = lo, hi
			edits = append(edits, func(s *Solver) { s.SetBound(j, lo, hi) })
		case 1: // row range change
			i := rnd.Intn(sp.m)
			switch {
			case math.IsInf(sp.rlo[i], -1): // <= row: move the rhs
				sp.rhi[i] = float64(rnd.Intn(12) - 2)
			case math.IsInf(sp.rhi[i], 1): // >= row: move the rhs
				sp.rlo[i] = float64(-rnd.Intn(8))
			default:
				sp.rlo[i] = float64(-rnd.Intn(5))
				sp.rhi[i] = sp.rlo[i] + float64(rnd.Intn(9))
			}
			lo, hi := sp.rlo[i], sp.rhi[i]
			edits = append(edits, func(s *Solver) { s.SetRowBounds(i, lo, hi) })
		default: // objective change
			j := rnd.Intn(sp.n)
			c := float64(rnd.Intn(13) - 6)
			sp.obj[j] = c
			edits = append(edits, func(s *Solver) { s.SetObj(j, c) })
		}
	}
	return func(s *Solver) {
		for _, e := range edits {
			e(s)
		}
	}
}

// TestWarmEditMatchesCold drives randomized edit scripts through the
// live-solver editors and checks the warm ReOptimize agrees with a
// cold solve of the edited problem on status and objective.
func TestWarmEditMatchesCold(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	warmWins := 0
	for trial := 0; trial < 500; trial++ {
		sp := genSpec(rnd)
		s, err := NewSolver(sp.problem())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		s.Solve()
		apply := sp.mutate(rnd)
		apply(s)
		warmSt := s.ReOptimize()

		cold, err := NewSolver(sp.problem())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		coldSt := cold.Solve()
		if warmSt != coldSt {
			t.Fatalf("trial %d: warm status %v, cold %v", trial, warmSt, coldSt)
		}
		if warmSt == StatusOptimal {
			wo, co := s.Objective(), cold.Objective()
			if math.Abs(wo-co) > 1e-7*(1+math.Abs(co)) {
				t.Fatalf("trial %d: warm objective %v, cold %v", trial, wo, co)
			}
			if r := residual(s); r > 1e-6 {
				t.Fatalf("trial %d: warm residual %v", trial, r)
			}
			if s.Iterations <= cold.Iterations {
				warmWins++
			}
		}
	}
	if warmWins == 0 {
		t.Fatal("warm restarts never pivoted less than cold solves — warm start is not warm")
	}
}

// TestSetRowBoundsAccessors pins the logical-bound encoding round trip.
func TestSetRowBoundsAccessors(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 10)
	if err := p.AddLE(Name("cap"), []int{x}, []float64{1}, 4); err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	// row 0's range is owned by its logical g_0 in [-hi, -lo]
	if lo, hi := -s.hi[s.n], -s.lo[s.n]; !math.IsInf(lo, -1) || hi != 4 {
		t.Fatalf("row range = [%v,%v], want [-inf,4]", lo, hi)
	}
	s.SetRowBounds(0, 1, 3)
	if lo, hi := -s.hi[s.n], -s.lo[s.n]; lo != 1 || hi != 3 {
		t.Fatalf("row range after edit = [%v,%v], want [1,3]", lo, hi)
	}
	if n, m := s.Dims(); n != 1 || m != 1 {
		t.Fatalf("Dims = %d,%d", n, m)
	}
	s.SetObj(x, -2)
	if c := s.c[x]; c != -2 {
		t.Fatalf("objective coefficient after SetObj = %v", c)
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("status %v", st)
	}
	// minimize -2x with 1 <= x <= 3 binding through the row
	if got := s.Objective(); math.Abs(got-(-6)) > 1e-9 {
		t.Fatalf("objective %v, want -6", got)
	}
}

// TestSetObjWarmBasic exercises the basic-column branch of SetObj: the
// edited variable is basic at the optimum, so the incremental update
// must sweep the tableau row.
func TestSetObjWarmBasic(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, 10)
	y := p.AddVar(Name("y"), -1, 0, 10)
	if err := p.AddLE(Name("r"), []int{x, y}, []float64{1, 2}, 8); err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("status %v", st)
	}
	// optimum: x=8 basic? either way, flip y's reward so the optimum moves
	s.SetObj(y, -5)
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("reopt status %v", st)
	}
	// minimize -x -5y, x+2y<=8, x,y in [0,10]: y=4, x=0 → -20
	if got := s.Objective(); math.Abs(got-(-20)) > 1e-9 {
		t.Fatalf("objective %v, want -20", got)
	}
}
