package lp

import (
	"context"
	"testing"
)

// buildReoptProblem returns a small LP whose bound flips force real
// warm-started pivoting: minimize -x0-x1 over x0+x1 <= 10 with
// per-variable upper bounds.
func buildReoptProblem(t *testing.T) *Solver {
	t.Helper()
	p := &Problem{}
	x0 := p.AddVar(Name("x0"), -1, 0, 6)
	x1 := p.AddVar(Name("x1"), -1, 0, 6)
	if err := p.AddRow(Name("capacity"), []int{x0, x1}, []float64{1, 1}, -Inf, 10); err != nil {
		t.Fatal(err)
	}
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCountersMove(t *testing.T) {
	s := buildReoptProblem(t)
	if s.Counters.Refactorizations == 0 {
		t.Fatal("NewSolver's initial factorization not counted")
	}
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("solve status %v", st)
	}
	if got := s.Objective(); got != -10 {
		t.Fatalf("objective %v, want -10", got)
	}
	c := s.Counters
	if c.WindowScans == 0 {
		t.Fatalf("no pricing windows scanned: %+v", c)
	}
	// a fresh Clone starts from zero, like Iterations
	cl := s.Clone()
	if cl.Counters != (Counters{}) || cl.Iterations != 0 {
		t.Fatalf("clone inherited counters: %+v", cl.Counters)
	}
	var sum Counters
	sum.Add(c)
	sum.Add(Counters{WindowScans: 1})
	if sum.WindowScans != c.WindowScans+1 {
		t.Fatalf("Add: %+v", sum)
	}
}

// TestCancelledContextStopsBeforeFirstPivot: the pivot loops poll the
// context before every pivot, so a solver whose context is already
// done returns StatusIterLimit without pivoting, however few pivots the
// solve would take.
func TestCancelledContextStopsBeforeFirstPivot(t *testing.T) {
	s := buildReoptProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	if st := s.Solve(); st != StatusIterLimit {
		t.Fatalf("status %v, want %v", st, StatusIterLimit)
	}
	if s.Iterations != 0 {
		t.Fatalf("%d pivots after cancellation, want 0", s.Iterations)
	}
	s.Ctx = nil
	if st := s.Solve(); st != StatusOptimal || s.Iterations == 0 {
		t.Fatalf("without the context: status %v after %d pivots, want optimal after some", st, s.Iterations)
	}
}

// TestReOptimizeSteadyStateAllocs pins the zero-allocation property of
// the warm-started pivot loop — the path branch and bound hammers — so
// the always-on counters (and any tracing changes) can never slip an
// allocation into it. The first cycles may grow scratch buffers
// (pricing candidates, pivot-row support); after that warm-up the loop
// must be allocation-free.
func TestReOptimizeSteadyStateAllocs(t *testing.T) {
	s := buildReoptProblem(t)
	if st := s.Solve(); st != StatusOptimal {
		t.Fatalf("solve status %v", st)
	}
	cycle := func() {
		s.SetBound(0, 0, 3)
		if st := s.ReOptimize(); st != StatusOptimal {
			t.Fatalf("re-optimize status %v", st)
		}
		s.SetBound(0, 0, 6)
		if st := s.ReOptimize(); st != StatusOptimal {
			t.Fatalf("re-optimize status %v", st)
		}
	}
	for i := 0; i < 8; i++ {
		cycle() // warm up scratch buffers
	}
	before := s.Counters
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state ReOptimize allocated %v per cycle, want 0", allocs)
	}
	if s.Counters == before {
		t.Fatal("counters did not advance during the measured cycles")
	}
}
