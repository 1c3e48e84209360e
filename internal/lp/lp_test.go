package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveFresh(t *testing.T, p *Problem) *Solver {
	t.Helper()
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	return s
}

func TestSimple2D(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0
	// optimum at (2,2): -6
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, 3)
	y := p.AddVar(Name("y"), -2, 0, 2)
	if err := p.AddLE(Name("cap"), []int{x, y}, []float64{1, 1}, 4); err != nil {
		t.Fatal(err)
	}
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-(-6)) > 1e-6 {
		t.Fatalf("objective = %v, want -6", got)
	}
	if err := p.Feasible(s.Solution(), 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y == 4, 0 <= x,y <= 10 -> y=2, x=0, obj 2
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 10)
	y := p.AddVar(Name("y"), 1, 0, 10)
	if err := p.AddEQ(Name("eq"), []int{x, y}, []float64{1, 2}, 4); err != nil {
		t.Fatal(err)
	}
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-2) > 1e-6 {
		t.Fatalf("objective = %v, want 2", got)
	}
}

func TestRangeConstraint(t *testing.T) {
	// min x s.t. 2 <= x + y <= 3, y <= 1 -> x >= 1, obj 1
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 10)
	y := p.AddVar(Name("y"), 0, 0, 1)
	if err := p.AddRow(Name("rng"), []int{x, y}, []float64{1, 1}, 2, 3); err != nil {
		t.Fatal(err)
	}
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-1) > 1e-6 {
		t.Fatalf("objective = %v, want 1", got)
	}
}

func TestInfeasible(t *testing.T) {
	// x >= 5 with x <= 2
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 2)
	if err := p.AddGE(Name("ge"), []int{x}, []float64{1}, 5); err != nil {
		t.Fatal(err)
	}
	s := solveFresh(t, p)
	if s.Status() != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", s.Status())
	}
}

func TestInfeasibleSystem(t *testing.T) {
	// x + y >= 5 and x + y <= 2
	p := &Problem{}
	x := p.AddVar(Name("x"), 0, 0, 10)
	y := p.AddVar(Name("y"), 0, 0, 10)
	_ = p.AddGE(Name("ge"), []int{x, y}, []float64{1, 1}, 5)
	_ = p.AddLE(Name("le"), []int{x, y}, []float64{1, 1}, 2)
	s := solveFresh(t, p)
	if s.Status() != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", s.Status())
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x unbounded above
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, Inf)
	y := p.AddVar(Name("y"), 0, 0, 1)
	_ = p.AddGE(Name("g"), []int{x, y}, []float64{1, 1}, 0)
	s := solveFresh(t, p)
	if s.Status() != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", s.Status())
	}
}

func TestFixedVariable(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 2, 2) // fixed at 2
	y := p.AddVar(Name("y"), -1, 0, 3)
	_ = p.AddLE(Name("cap"), []int{x, y}, []float64{1, 1}, 4)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.value(x); math.Abs(got-2) > 1e-9 {
		t.Fatalf("x = %v, want 2", got)
	}
	if got := s.Objective(); math.Abs(got-(-4)) > 1e-6 {
		t.Fatalf("obj = %v, want -4 (x=2,y=2)", got)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y, x >= -3, y >= -2, x + y >= -4 -> obj -4
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, -3, 10)
	y := p.AddVar(Name("y"), 1, -2, 10)
	_ = p.AddGE(Name("g"), []int{x, y}, []float64{1, 1}, -4)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-(-4)) > 1e-6 {
		t.Fatalf("obj = %v, want -4", got)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x - y == 0, y in [1, 2], x free -> obj 1
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, math.Inf(-1), Inf)
	y := p.AddVar(Name("y"), 0, 1, 2)
	_ = p.AddEQ(Name("eq"), []int{x, y}, []float64{1, -1}, 0)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-1) > 1e-6 {
		t.Fatalf("obj = %v, want 1", got)
	}
}

// Beale's classic cycling example (with bounds added); Bland fallback
// must terminate.
func TestBealeDegenerate(t *testing.T) {
	p := &Problem{}
	x1 := p.AddVar(Name("x1"), -0.75, 0, Inf)
	x2 := p.AddVar(Name("x2"), 150, 0, Inf)
	x3 := p.AddVar(Name("x3"), -0.02, 0, Inf)
	x4 := p.AddVar(Name("x4"), 6, 0, Inf)
	_ = p.AddLE(Name("r1"), []int{x1, x2, x3, x4}, []float64{0.25, -60, -0.04, 9}, 0)
	_ = p.AddLE(Name("r2"), []int{x1, x2, x3, x4}, []float64{0.5, -90, -0.02, 3}, 0)
	_ = p.AddLE(Name("r3"), []int{x3}, []float64{1}, 1)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatalf("status = %v", s.Status())
	}
	if got := s.Objective(); math.Abs(got-(-0.05)) > 1e-6 {
		t.Fatalf("obj = %v, want -0.05", got)
	}
}

func TestWarmStartAfterBoundChange(t *testing.T) {
	// knapsack-ish LP; fix a variable and re-optimize
	p := &Problem{}
	var idx []int
	costs := []float64{-5, -4, -3, -6, -1}
	weights := []float64{2, 3, 1, 4, 1}
	for j, c := range costs {
		idx = append(idx, p.AddBinary(Name("b"), c))
		_ = j
	}
	_ = p.AddLE(Name("w"), idx, weights, 6)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatal(s.Status())
	}
	base := s.Objective()

	s.SetBound(idx[0], 0, 0) // forbid item 0
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("reopt status = %v", st)
	}
	if s.value(idx[0]) > 1e-9 {
		t.Fatalf("x0 = %v after fixing to 0", s.value(idx[0]))
	}
	got := s.Objective()

	// fresh solve of the modified problem must agree
	p2 := &Problem{}
	var idx2 []int
	for j, c := range costs {
		lo, hi := 0.0, 1.0
		if j == 0 {
			hi = 0
		}
		idx2 = append(idx2, p2.AddVar(Name("b"), c, lo, hi))
	}
	_ = p2.AddLE(Name("w"), idx2, weights, 6)
	s2 := solveFresh(t, p2)
	if math.Abs(got-s2.Objective()) > 1e-6 {
		t.Fatalf("warm %v vs fresh %v", got, s2.Objective())
	}
	if got < base-1e-9 {
		t.Fatalf("tightening improved objective: %v -> %v", base, got)
	}

	// relax the bound back; must recover the original optimum
	s.SetBound(idx[0], 0, 1)
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("relax status = %v", st)
	}
	if math.Abs(s.Objective()-base) > 1e-6 {
		t.Fatalf("relax objective %v, want %v", s.Objective(), base)
	}
}

func TestWarmStartInfeasibleThenBack(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 5)
	y := p.AddVar(Name("y"), 1, 0, 5)
	_ = p.AddGE(Name("g"), []int{x, y}, []float64{1, 1}, 8)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatal(s.Status())
	}
	s.SetBound(x, 0, 1)
	s.SetBound(y, 0, 1)
	if st := s.ReOptimize(); st != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", st)
	}
	s.SetBound(x, 0, 5)
	s.SetBound(y, 0, 5)
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("status = %v, want optimal after relax", st)
	}
	if math.Abs(s.Objective()-8) > 1e-6 {
		t.Fatalf("obj = %v, want 8", s.Objective())
	}
}

func TestAddRowValidation(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 1)
	if err := p.AddRow(Name("bad"), []int{x}, []float64{1, 2}, 0, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if err := p.AddRow(Name("bad"), []int{99}, []float64{1}, 0, 1); err == nil {
		t.Error("bad index accepted")
	}
	if err := p.AddRow(Name("bad"), []int{x}, []float64{1}, 2, 1); err == nil {
		t.Error("empty range accepted")
	}
	// duplicate indices accumulate
	if err := p.AddLE(Name("dup"), []int{x, x}, []float64{1, 1}, 1.5); err != nil {
		t.Fatal(err)
	}
	if v := p.Eval(0, []float64{1}); math.Abs(v-2) > 1e-12 {
		t.Fatalf("dup accumulation: eval = %v, want 2", v)
	}
}

func TestEmptyProblemRejected(t *testing.T) {
	if _, err := NewSolver(&Problem{}); err != nil {
		return
	}
	t.Fatal("empty problem accepted")
}

func TestStats(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 1)
	y := p.AddVar(Name("y"), 1, 0, 1)
	_ = p.AddLE(Name("r"), []int{x, y}, []float64{1, 1}, 1)
	st := p.Stats()
	if st.Vars != 2 || st.Rows != 1 || st.NNZ != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// randomPrimalDual builds a random primal
//
//	min c·x  s.t.  A x >= b, 0 <= x <= u
//
// guaranteed feasible (b <= A·u, A >= 0), plus its exact dual
//
//	max b·y - u·w  s.t.  A^T y - w <= c, y >= 0, w >= 0
//
// Strong duality (primal obj == dual obj) plus independently checked
// feasibility of both solutions certifies optimality of both solves.
func randomPrimalDual(r *rand.Rand) (*Problem, *Problem) {
	n := 2 + r.Intn(5)
	m := 1 + r.Intn(5)
	A := make([][]float64, m)
	b := make([]float64, m)
	c := make([]float64, n)
	u := make([]float64, n)
	for j := 0; j < n; j++ {
		c[j] = float64(r.Intn(21) - 10)
		u[j] = float64(1 + r.Intn(5))
	}
	for i := 0; i < m; i++ {
		A[i] = make([]float64, n)
		rowMax := 0.0
		for j := 0; j < n; j++ {
			A[i][j] = float64(r.Intn(4)) // >= 0
			rowMax += A[i][j] * u[j]
		}
		if rowMax > 0 {
			b[i] = math.Floor(rowMax * r.Float64() * 0.8)
		}
	}
	primal := &Problem{}
	for j := 0; j < n; j++ {
		primal.AddVar(Name("x"), c[j], 0, u[j])
	}
	for i := 0; i < m; i++ {
		var idx []int
		var coef []float64
		for j := 0; j < n; j++ {
			if A[i][j] != 0 {
				idx = append(idx, j)
				coef = append(coef, A[i][j])
			}
		}
		if len(idx) > 0 {
			_ = primal.AddGE(Name("r"), idx, coef, b[i])
		}
	}
	// dual as a minimization: min -b·y + u·w s.t. A^T y - w <= c
	dual := &Problem{}
	ys := make([]int, m)
	ws := make([]int, n)
	for i := 0; i < m; i++ {
		ys[i] = dual.AddVar(Name("y"), -b[i], 0, Inf)
	}
	for j := 0; j < n; j++ {
		ws[j] = dual.AddVar(Name("w"), u[j], 0, Inf)
	}
	for j := 0; j < n; j++ {
		idx := []int{ws[j]}
		coef := []float64{-1}
		for i := 0; i < m; i++ {
			if A[i][j] != 0 {
				idx = append(idx, ys[i])
				coef = append(coef, A[i][j])
			}
		}
		_ = dual.AddLE(Name("c"), idx, coef, c[j])
	}
	return primal, dual
}

func TestPropertyStrongDuality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		primal, dual := randomPrimalDual(r)
		sp, err := NewSolver(primal)
		if err != nil {
			return false
		}
		if sp.Solve() != StatusOptimal {
			return false // primal is feasible & bounded by construction
		}
		if err := primal.Feasible(sp.Solution(), 1e-6); err != nil {
			return false
		}
		sd, err := NewSolver(dual)
		if err != nil {
			return false
		}
		if sd.Solve() != StatusOptimal {
			return false // dual of a feasible bounded LP is feasible & bounded
		}
		if err := dual.Feasible(sd.Solution(), 1e-6); err != nil {
			return false
		}
		zp := sp.Objective()
		zd := -sd.Objective() // dual was posed as a minimization
		return math.Abs(zp-zd) <= 1e-5*(1+math.Abs(zp))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyWarmStartMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		primal, _ := randomPrimalDual(r)
		s, err := NewSolver(primal)
		if err != nil {
			return false
		}
		if s.Solve() != StatusOptimal {
			return false
		}
		// random sequence of bound tightenings on up to 3 variables
		type chg struct{ j int }
		var changed []chg
		for k := 0; k < 1+r.Intn(3); k++ {
			j := r.Intn(primal.NumVars())
			lo, hi := s.Bound(j)
			if hi-lo < 1 {
				continue
			}
			if r.Intn(2) == 0 {
				s.SetBound(j, lo, lo) // fix down
			} else {
				s.SetBound(j, hi, hi) // fix up
			}
			changed = append(changed, chg{j})
		}
		st := s.ReOptimize()
		// fresh problem with the same bounds
		p2, _ := randomPrimalDual(rand.New(rand.NewSource(seed)))
		for j := 0; j < p2.NumVars(); j++ {
			lo, hi := s.Bound(j)
			p2.lo[j], p2.hi[j] = lo, hi
		}
		s2, err := NewSolver(p2)
		if err != nil {
			return false
		}
		st2 := s2.Solve()
		if st != st2 {
			return false
		}
		if st != StatusOptimal {
			return true // both agree infeasible
		}
		if err := p2.Feasible(s.Solution(), 1e-6); err != nil {
			return false
		}
		return math.Abs(s.Objective()-s2.Objective()) <= 1e-5*(1+math.Abs(s2.Objective()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		StatusUnknown:    "unknown",
		StatusOptimal:    "optimal",
		StatusInfeasible: "infeasible",
		StatusUnbounded:  "unbounded",
		StatusIterLimit:  "iteration-limit",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}

func TestIterationsCounted(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, 3)
	y := p.AddVar(Name("y"), -2, 0, 2)
	_ = p.AddLE(Name("cap"), []int{x, y}, []float64{1, 1}, 4)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	if s.Iterations == 0 {
		t.Fatal("no iterations counted")
	}
	before := s.Iterations
	s.SetBound(x, 0, 1)
	s.ReOptimize()
	if s.Iterations < before {
		t.Fatal("iteration counter went backwards")
	}
}

func TestSolutionAndX(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, 3)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatal(st)
	}
	sol := s.Solution()
	if len(sol) != 1 || math.Abs(sol[0]-3) > 1e-9 || math.Abs(s.value(x)-3) > 1e-9 {
		t.Fatalf("solution = %v, X = %v", sol, s.value(x))
	}
}

func TestDualValues(t *testing.T) {
	// min -x - 2y s.t. x + y <= 4, y <= 2 (as a row), x <= 3
	// optimum x=2, y=2; binding rows: both.
	// dual of "x + y <= 4" is -1 (objective falls by 1 per unit rhs),
	// dual of "y <= 2" is -1 (objective falls by extra 1).
	p := &Problem{}
	x := p.AddVar(Name("x"), -1, 0, 3)
	y := p.AddVar(Name("y"), -2, 0, Inf)
	_ = p.AddLE(Name("cap"), []int{x, y}, []float64{1, 1}, 4)
	_ = p.AddLE(Name("ycap"), []int{y}, []float64{1}, 2)
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatal(s.Status())
	}
	duals := s.Duals()
	if d := duals[0]; math.Abs(d-(-1)) > 1e-6 {
		t.Errorf("dual(cap) = %v, want -1", d)
	}
	if d := duals[1]; math.Abs(d-(-1)) > 1e-6 {
		t.Errorf("dual(ycap) = %v, want -1", d)
	}
	// x is basic at 2: reduced cost ~ 0... x at 2 with bound 3: basic.
	if rc := s.d[x]; math.Abs(rc) > 1e-6 {
		t.Errorf("rc(x) = %v, want 0", rc)
	}
}

// Property: at optimality, reduced-cost signs satisfy the optimality
// conditions and strong duality holds against the duals' valuation.
func TestPropertyDualSigns(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, _ := randomPrimalDual(r)
		s, err := NewSolver(p)
		if err != nil {
			return false
		}
		if s.Solve() != StatusOptimal {
			return false
		}
		for j := 0; j < p.NumVars(); j++ {
			rc := s.d[j]
			lo, hi := p.Bounds(j)
			v := s.value(j)
			switch {
			case v <= lo+1e-6:
				if rc < -1e-5 {
					return false
				}
			case v >= hi-1e-6:
				if rc > 1e-5 {
					return false
				}
			default:
				if math.Abs(rc) > 1e-5 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// After a long warm-started pivot history, the solution must still
// satisfy the original rows tightly.
func TestResidualStaysSmall(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p, _ := randomPrimalDual(r)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != StatusOptimal {
		t.Fatal("unexpected status")
	}
	// hammer the warm-start path with bound toggles
	for k := 0; k < 200; k++ {
		j := r.Intn(p.NumVars())
		lo, hi := s.Bound(j)
		if hi-lo < 0.5 {
			continue
		}
		s.SetBound(j, lo, lo)
		s.ReOptimize()
		s.SetBound(j, lo, hi)
		s.ReOptimize()
	}
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("status %v after toggles", st)
	}
	if res := residual(s); res > 1e-6 {
		t.Fatalf("residual %g after 400 re-optimizations", res)
	}
}

// residual returns the maximum violation of the original row equations
// by the solver's current solution — a direct measure of the numerical
// drift accumulated by incremental basis updates. A healthy solve stays
// within a few orders of magnitude of machine epsilon times the
// problem's coefficient magnitude.
func residual(s *Solver) float64 {
	worst := 0.0
	for i := 0; i < s.m; i++ {
		idx, val := s.rows.row(i)
		v := 0.0
		for k, j := range idx {
			v += val[k] * s.value(j)
		}
		// row value must lie in [lo, hi], owned by row i's logical
		lo, hi := -s.hi[s.n+i], -s.lo[s.n+i]
		if v < lo && lo-v > worst {
			worst = lo - v
		}
		if v > hi && v-hi > worst {
			worst = v - hi
		}
	}
	return worst
}
