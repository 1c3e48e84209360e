package milp

import (
	"math"
	"testing"

	"repro/internal/lp"
)

// TestWarmRootMatchesCold solves a knapsack cold, captures the root
// basis via OnRoot, edits the capacity on a clone with SetRowBounds,
// and checks the warm re-solve agrees with a cold solve of the edited
// problem — the exact loop the delta engine runs.
func TestWarmRootMatchesCold(t *testing.T) {
	vals := []float64{10, 7, 5, 4, 3, 6, 8, 2}
	weights := []float64{5, 4, 3, 2, 2, 4, 5, 1}
	p, cols := knapsack(vals, weights, 11)

	var root *lp.Solver
	res, err := solve(p, Options{IntVars: cols, OnRoot: func(s *lp.Solver) { root = s.Clone() }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("base status %v", res.Status)
	}
	if root == nil {
		t.Fatal("OnRoot never fired")
	}

	for _, newCap := range []float64{9, 13, 11, 6, 16} {
		p2, cols2 := knapsack(vals, weights, newCap)
		cold, err := solve(p2, Options{IntVars: cols2})
		if err != nil {
			t.Fatal(err)
		}
		ws := root.Clone()
		ws.SetRowBounds(0, math.Inf(-1), newCap)
		warm, err := solve(p2, Options{IntVars: cols2, Warm: ws})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("cap %v: warm status %v, cold %v", newCap, warm.Status, cold.Status)
		}
		if warm.Status == StatusOptimal && math.Abs(warm.Objective-cold.Objective) > 1e-9 {
			t.Fatalf("cap %v: warm objective %v, cold %v", newCap, warm.Objective, cold.Objective)
		}
	}
}

// TestWarmDimensionMismatch pins the contract violation error.
func TestWarmDimensionMismatch(t *testing.T) {
	p, cols := knapsack([]float64{1, 2}, []float64{1, 1}, 1)
	s, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	p2, cols2 := knapsack([]float64{1, 2, 3}, []float64{1, 1, 1}, 2)
	if _, err := solve(p2, Options{IntVars: cols2, Warm: s}); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	_ = cols
}

// TestWarmCertified checks that a certified warm solve still renders a
// valid certificate against the edited problem.
func TestWarmCertified(t *testing.T) {
	vals := []float64{9, 7, 6, 3}
	weights := []float64{4, 3, 3, 2}
	p, cols := knapsack(vals, weights, 7)
	var root *lp.Solver
	if _, err := solve(p, Options{IntVars: cols, OnRoot: func(s *lp.Solver) { root = s.Clone() }}); err != nil {
		t.Fatal(err)
	}
	p2, cols2 := knapsack(vals, weights, 5)
	ws := root.Clone()
	ws.SetRowBounds(0, math.Inf(-1), 5)
	warm, err := solve(p2, Options{IntVars: cols2, Warm: ws, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("status %v", warm.Status)
	}
	if warm.Certificate == nil {
		t.Fatal("no certificate attached")
	}
	if !warm.Certificate.Valid {
		t.Fatalf("certificate invalid: %+v", warm.Certificate.Checks)
	}
}
