package lp

import (
	"math"
	"testing"
)

// TestDriftedInfeasibleVerdictRecovers is the regression test for a
// wrongful warm-start infeasibility verdict. A drifted basis can make
// the dual simplex believe a basic variable is stuck outside its bounds
// with no eligible entering column; before Farkas certification the
// solver returned StatusInfeasible from pure basis state, and a
// branch-and-bound caller would silently prune a feasible subtree (this
// was observed end-to-end: a feasible partitioning instance "proved"
// infeasible after ~18k accumulated pivots). The certificate recomputes
// the aggregated row from original data, rejects the fake verdict, and
// optimize recovers by refactorizing. Both engines must recover: the
// revised engine that serves every solve and the dense reference.
func TestDriftedInfeasibleVerdictRecovers(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 5)
	y := p.AddVar(Name("y"), 0, 0, 5)
	if err := p.AddEQ(Name("e"), []int{x, y}, []float64{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		build func(*Problem) (*Solver, error)
	}{{"revised", NewSolver}, {"dense", newDenseSolver}} {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.build(p)
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Solve(); st != StatusOptimal {
				t.Fatal(st)
			}
			// simulate catastrophic drift: push a structural basic value
			// far below its lower bound. The revised engine's fresh
			// pivot row then offers no entering column; the dense
			// tableau row is corrupted too, so every other coefficient
			// vanishes. On that evidence alone the LP looks infeasible.
			r := -1
			for i := 0; i < s.m; i++ {
				if s.basis[i] < s.n {
					r = i
					break
				}
			}
			if r < 0 {
				t.Fatal("no structural basic variable to corrupt")
			}
			b := s.basis[r]
			if e, ok := s.eng.(*denseEngine); ok {
				trow := e.tab[r*s.ntot : (r+1)*s.ntot]
				for j := range trow {
					trow[j] = 0
				}
				trow[b] = 1
			}
			s.beta[r] = s.lo[b] - 10
			if st := s.ReOptimize(); st != StatusOptimal {
				t.Fatalf("status = %v, want optimal: drifted basis produced a trusted infeasible verdict", st)
			}
			if obj := s.Objective(); math.Abs(obj) > 1e-6 {
				t.Fatalf("objective = %v, want 0", obj)
			}
			if err := p.Feasible(s.Solution(), 1e-6); err != nil {
				t.Fatalf("recovered solution infeasible: %v", err)
			}
			if got := s.Counters.FarkasRejected; got != 1 {
				t.Fatalf("FarkasRejected = %d, want 1: the drifted verdict must fail certification", got)
			}
		})
	}
}

// TestGenuineInfeasibilityStillCertified checks the other side: a truly
// infeasible warm re-optimization must still report StatusInfeasible,
// i.e. the Farkas certificate accepts honest verdicts without the
// refactorization fallback changing the answer.
func TestGenuineInfeasibilityStillCertified(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 5)
	y := p.AddVar(Name("y"), 1, 0, 5)
	if err := p.AddGE(Name("g"), []int{x, y}, []float64{1, 1}, 8); err != nil {
		t.Fatal(err)
	}
	s := solveFresh(t, p)
	if s.Status() != StatusOptimal {
		t.Fatal(s.Status())
	}
	s.SetBound(x, 0, 1)
	s.SetBound(y, 0, 1)
	if st := s.ReOptimize(); st != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", st)
	}
	// and the verdict must survive a round-trip back to feasibility
	s.SetBound(x, 0, 5)
	s.SetBound(y, 0, 5)
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("status = %v, want optimal after relaxing", st)
	}
}

// TestFarkasCertifiedRejectsZeroMultipliers covers the certificate
// itself: all-zero multipliers aggregate to the trivial equation 0 = 0,
// which proves nothing and must not certify.
func TestFarkasCertifiedRejectsZeroMultipliers(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), 1, 0, 5)
	if err := p.AddGE(Name("g"), []int{x}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	s, err := newDenseSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.Solve()
	e := s.eng.(*denseEngine)
	trow := e.tab[0*s.ntot : 1*s.ntot]
	for j := range trow {
		trow[j] = 0
	}
	if e.farkasCertified(s, 0) {
		t.Fatal("trivial aggregation certified infeasibility")
	}
}
