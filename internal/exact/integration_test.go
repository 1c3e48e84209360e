package exact_test

// Integration of the certification layer with the float simplex it
// audits: solve real LPs with internal/lp, snapshot them through the
// Source bridge, and prove the solver's verdicts in exact arithmetic —
// LP optimality from the terminal basis (primal/dual feasibility plus
// complementary slackness) and infeasibility from a captured Farkas
// ray. This is the certification contract of DESIGN.md exercised
// end-to-end at the LP layer.

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/lp"
)

// knapLP builds a small LP with an integral optimal vertex:
//
//	min  -x0 - 2*x1
//	s.t. x0 +   x1 <= 4
//	     x0 + 3*x1 <= 6
//	     0 <= x <= 10
//
// Optimum x = (3, 1), objective -5.
func knapLP(t *testing.T) *lp.Problem {
	t.Helper()
	p := &lp.Problem{}
	x0 := p.AddVar(lp.Name("x0"), -1, 0, 10)
	x1 := p.AddVar(lp.Name("x1"), -2, 0, 10)
	if err := p.AddLE(lp.Name("r0"), []int{x0, x1}, []float64{1, 1}, 4); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE(lp.Name("r1"), []int{x0, x1}, []float64{1, 3}, 6); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBasisCertifiesLPOptimality is ISSUE item (a): exact primal and
// dual feasibility plus complementary slackness on the returned basis
// prove the float solver's optimum, and the certified LP bound meets
// the certified incumbent objective — optimality, proved exactly.
func TestBasisCertifiesLPOptimality(t *testing.T) {
	p := knapLP(t)
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != lp.StatusOptimal {
		t.Fatalf("LP status %v", st)
	}
	c := &exact.Certificate{
		Version:   1,
		Kind:      exact.KindOptimal,
		Objective: exact.FloatString(s.Objective()),
		X:         exact.FloatVec(s.Solution()),
		DualY:     exact.FloatVec(s.Duals()),
		Basis:     s.BasisRows(),
		VarPos:    s.VarPositions(),
		Problem:   exact.Snapshot(p),
	}
	c.Check()
	if !c.Valid {
		t.Fatalf("basis certificate invalid: %s\n%+v", c.Summary(), c.Checks)
	}
	if c.ExactObjective != "-5" {
		t.Errorf("ExactObjective = %q, want -5", c.ExactObjective)
	}
	if c.ExactBound != c.ExactObjective {
		t.Errorf("basis bound %q does not close the gap to %q", c.ExactBound, c.ExactObjective)
	}
	for _, name := range []string{"basis-primal", "basis-dual", "basis-slackness", "basis-objective"} {
		found := false
		for _, ch := range c.Checks {
			if ch.Name == name && ch.OK {
				found = true
			}
		}
		if !found {
			t.Errorf("missing passing check %s in %+v", name, c.Checks)
		}
	}
}

// TestBasisRejectsForeignPoint feeds the basis checks a basis from a
// DIFFERENT solve state: a corrupted VarPos must fail, not mislead.
func TestBasisRejectsForeignPoint(t *testing.T) {
	p := knapLP(t)
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != lp.StatusOptimal {
		t.Fatalf("LP status %v", st)
	}
	c := &exact.Certificate{
		Kind:      exact.KindOptimal,
		Objective: exact.FloatString(s.Objective()),
		X:         exact.FloatVec(s.Solution()),
		Basis:     s.BasisRows(),
		VarPos:    s.VarPositions(),
		Problem:   exact.Snapshot(p),
	}
	// flip a nonbasic variable's resting bound: the implied vertex moves
	for j, pos := range c.VarPos {
		if pos == exact.PosLower {
			c.VarPos[j] = exact.PosUpper
			break
		}
	}
	c.Check()
	if c.Valid {
		t.Fatal("corrupted basis snapshot validated")
	}
}

// TestFarkasCaptureCertifiesInfeasibility is ISSUE item (b): the
// solver's captured Farkas ray, replayed against the original row data
// in exact arithmetic, proves the infeasibility verdict.
func TestFarkasCaptureCertifiesInfeasibility(t *testing.T) {
	p := &lp.Problem{}
	x0 := p.AddVar(lp.Name("x0"), 1, 0, 1)
	x1 := p.AddVar(lp.Name("x1"), 1, 0, 1)
	if err := p.AddGE(lp.Name("need3"), []int{x0, x1}, []float64{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	s.CaptureFarkas = true
	if st := s.Solve(); st != lp.StatusInfeasible {
		t.Fatalf("LP status %v, want infeasible", st)
	}
	ray := s.FarkasRay()
	if ray == nil {
		t.Fatal("no Farkas ray captured")
	}
	c := &exact.Certificate{
		Kind:    exact.KindInfeasible,
		Search:  "farkas",
		FarkasY: exact.FloatVec(ray),
		Problem: exact.Snapshot(p),
	}
	c.Check()
	if !c.Valid {
		t.Fatalf("Farkas certificate invalid: %s\n%+v", c.Summary(), c.Checks)
	}
}

// TestFarkasOffCapturesNothing: the default path must not retain rays.
func TestFarkasOffCapturesNothing(t *testing.T) {
	p := &lp.Problem{}
	x0 := p.AddVar(lp.Name("x0"), 1, 0, 1)
	if err := p.AddGE(lp.Name("need2"), []int{x0}, []float64{1}, 2); err != nil {
		t.Fatal(err)
	}
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Solve(); st != lp.StatusInfeasible {
		t.Fatalf("LP status %v, want infeasible", st)
	}
	if ray := s.FarkasRay(); ray != nil {
		t.Fatalf("Farkas ray captured with CaptureFarkas off: %v", ray)
	}
}

// TestSnapshotIsSource pins the structural bridge: *lp.Problem
// satisfies exact.Source and the snapshot is value-faithful.
func TestSnapshotIsSource(t *testing.T) {
	var src exact.Source = knapLP(t)
	snap := exact.Snapshot(src)
	if len(snap.Obj) != 2 || len(snap.Rows) != 2 {
		t.Fatalf("snapshot shape: %d vars, %d rows", len(snap.Obj), len(snap.Rows))
	}
	if snap.Obj[1] != "-2" || snap.Rows[1].Val[1] != "3" || snap.Rows[1].Hi != "6" {
		t.Errorf("snapshot values drifted: %+v", snap)
	}
	if snap.Rows[0].Lo != "-inf" {
		t.Errorf("unbounded row side = %q, want -inf", snap.Rows[0].Lo)
	}
}
