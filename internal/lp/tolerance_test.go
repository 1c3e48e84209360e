package lp

import (
	"math"
	"testing"
)

// TestPresolveToleranceConsistency is the regression for the presolve
// tolerance bug: bound propagation used a private eps = 1e-9 while the
// rest of presolve (and the simplex's feasibility judgment) works at
// feasTol = 1e-7, so "improvements" in the 1e-9..1e-7 gap — below the
// solver's resolution — were applied and churned extra rounds. The two
// deltas here straddle that gap: the sub-feasTol one must now be
// ignored, the significant one still applied.
func TestPresolveToleranceConsistency(t *testing.T) {
	build := func(delta float64) *Problem {
		p := &Problem{}
		x0 := p.AddVar(Name("x0"), 0, 0, 1)
		x1 := p.AddVar(Name("x1"), 0, 0, 1)
		// propagation implies x0 <= 1-delta and x1 <= 1-delta
		if err := p.AddLE(Name("cap"), []int{x0, x1}, []float64{1, 1}, 1-delta); err != nil {
			t.Fatal(err)
		}
		return p
	}

	// an improvement below the solver's resolution must not be applied
	p := build(1e-8)
	res := p.Presolve()
	if res.BoundsTightened != 0 {
		t.Fatalf("sub-feasTol improvement applied: %+v", res)
	}
	if _, hi := p.Bounds(0); hi != 1 {
		t.Fatalf("bound moved below the solver's resolution: hi = %v", hi)
	}

	// a genuinely significant improvement still propagates
	p = build(1e-4)
	res = p.Presolve()
	if res.BoundsTightened != 2 {
		t.Fatalf("significant improvement not applied: %+v", res)
	}
	if _, hi := p.Bounds(0); hi >= 1-1e-5 {
		t.Fatalf("bound not tightened: hi = %v", hi)
	}

	// singleton conversion judges significance at the same feasTol
	p = &Problem{}
	p.AddVar(Name("x"), 0, 0, 1)
	if err := p.AddLE(Name("s"), []int{0}, []float64{1}, 1-1e-8); err != nil {
		t.Fatal(err)
	}
	if res := p.Presolve(); res.BoundsTightened != 0 || res.RowsRemoved != 1 {
		t.Fatalf("singleton applied a sub-feasTol bound: %+v", res)
	}
}

// bealeSolver builds Beale's classic cycling LP: under a naive
// most-negative/first-tie pivot rule the simplex cycles forever on its
// degenerate vertex. The optimum is x = (1/25, 0, 1, 0) with objective
// -1/20.
func bealeSolver(t *testing.T) *Solver {
	t.Helper()
	p := &Problem{}
	x1 := p.AddVar(Name("x1"), -0.75, 0, Inf)
	x2 := p.AddVar(Name("x2"), 150, 0, Inf)
	x3 := p.AddVar(Name("x3"), -0.02, 0, Inf)
	x4 := p.AddVar(Name("x4"), 6, 0, Inf)
	if err := p.AddLE(Name("r1"), []int{x1, x2, x3, x4}, []float64{0.25, -60, -1.0 / 25, 9}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE(Name("r2"), []int{x1, x2, x3, x4}, []float64{0.5, -90, -1.0 / 50, 3}, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE(Name("r3"), []int{x3}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDegenerateTieBreakTerminates is the cycling regression for the
// ratio-test tie handling: Beale's example must reach the optimum in a
// bounded number of pivots instead of cycling on its degenerate vertex.
func TestDegenerateTieBreakTerminates(t *testing.T) {
	s := bealeSolver(t)
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("status %v, want optimal", st)
	}
	if got := s.Objective(); math.Abs(got-(-0.05)) > 1e-9 {
		t.Fatalf("objective %v, want -0.05", got)
	}
	if s.Iterations > 100 {
		t.Fatalf("suspiciously many pivots on a 3x4 LP: %d", s.Iterations)
	}
}

// TestTieBreakDeterministicUnderNoise pins the fixed tie-break rule:
// ties in the ratio test break toward the lowest basis index unless a
// pivot magnitude is DECISIVELY larger (beyond tieTol), so coefficient
// noise far below tieTol — the kind a cloned worker's re-updated
// tableau accumulates — cannot reorder pivots. The clean and the
// noise-perturbed problem must pivot identically: same iteration
// count, same terminal basis.
func TestTieBreakDeterministicUnderNoise(t *testing.T) {
	build := func(noise float64) *Solver {
		p := &Problem{}
		x0 := p.AddVar(Name("x0"), -1, 0, Inf)
		x1 := p.AddVar(Name("x1"), -1, 0, Inf)
		// duplicate capacity rows: every ratio test on them ties, with
		// equal pivot magnitudes up to the injected noise
		if err := p.AddLE(Name("capA"), []int{x0, x1}, []float64{1, 1}, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.AddLE(Name("capB"), []int{x0, x1}, []float64{1 + noise, 1}, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.AddLE(Name("capC"), []int{x0, x1}, []float64{1, 1 + noise}, 1); err != nil {
			t.Fatal(err)
		}
		s, err := NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	clean, noisy := build(0), build(1e-12)
	if st := clean.Solve(); st != StatusOptimal {
		t.Fatalf("clean status %v", st)
	}
	if st := noisy.Solve(); st != StatusOptimal {
		t.Fatalf("noisy status %v", st)
	}
	if clean.Iterations != noisy.Iterations {
		t.Fatalf("noise below tieTol changed the pivot sequence: %d vs %d iterations",
			clean.Iterations, noisy.Iterations)
	}
	cb, nb := clean.BasisRows(), noisy.BasisRows()
	for i := range cb {
		if cb[i] != nb[i] {
			t.Fatalf("terminal bases diverged at row %d: %v vs %v", i, cb, nb)
		}
	}
}

// TestCloneWarmStartPivotsMatchSerial re-optimizes the same bound
// change on a solver and on its clone: with the deterministic
// tie-break both must take the identical pivot path — the property the
// parallel branch-and-bound workers rely on for reproducible search
// trees.
func TestCloneWarmStartPivotsMatchSerial(t *testing.T) {
	serial := bealeSolver(t)
	if st := serial.Solve(); st != StatusOptimal {
		t.Fatalf("status %v", st)
	}
	worker := serial.Clone() // a clone's Iterations restart at zero
	base := serial.Iterations
	for _, hi := range []float64{0.5, 0.25, 1} {
		serial.SetBound(2, 0, hi)
		worker.SetBound(2, 0, hi)
		ss, ws := serial.ReOptimize(), worker.ReOptimize()
		if ss != ws {
			t.Fatalf("hi=%v: serial %v vs worker %v", hi, ss, ws)
		}
		if serial.Objective() != worker.Objective() {
			t.Fatalf("hi=%v: objectives diverged: %v vs %v", hi, serial.Objective(), worker.Objective())
		}
		sb, wb := serial.BasisRows(), worker.BasisRows()
		for i := range sb {
			if sb[i] != wb[i] {
				t.Fatalf("hi=%v: bases diverged at row %d: %v vs %v", hi, i, sb, wb)
			}
		}
	}
	if serial.Iterations-base != worker.Iterations {
		t.Fatalf("pivot counts diverged: serial %d vs worker %d", serial.Iterations-base, worker.Iterations)
	}
}

// TestCertifyOffSteadyStateAllocs pins the acceptance criterion that
// the certification hooks add no allocations when certification is
// off: warm-started re-optimization cycles that cross an infeasibility
// verdict — the path that exercises certifyRay's capture gate —
// stay allocation-free with CaptureFarkas at its default false.
func TestCertifyOffSteadyStateAllocs(t *testing.T) {
	s := buildReoptProblem(t)
	if s.CaptureFarkas {
		t.Fatal("CaptureFarkas must default to off")
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("solve status %v", st)
	}
	cycle := func() {
		// tighten x0's domain above the row capacity: infeasible, so the
		// dual simplex runs Farkas certification with capture off
		s.SetBound(0, 11, 12)
		if st := s.ReOptimize(); st != StatusInfeasible {
			t.Fatalf("re-optimize status %v, want infeasible", st)
		}
		if ray := s.FarkasRay(); ray != nil {
			t.Fatalf("ray captured with CaptureFarkas off: %v", ray)
		}
		s.SetBound(0, 0, 6)
		if st := s.ReOptimize(); st != StatusOptimal {
			t.Fatalf("re-optimize status %v, want optimal", st)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm up scratch buffers
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("certify-off re-optimize allocated %v per cycle, want 0", allocs)
	}
}
