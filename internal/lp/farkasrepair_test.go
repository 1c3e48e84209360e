package lp_test

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/lp"
)

// TestFarkasRepairProvesInfeasibility: the elastic relaxation's duals,
// sanitized, must replay exactly — including on one-sided rows, where
// a wrong-signed roundoff multiplier would widen the replayed interval
// to +-inf (the fuzzer-found failure mode this repair exists for).
func TestFarkasRepairProvesInfeasibility(t *testing.T) {
	p := &lp.Problem{}
	x0 := p.AddVar(lp.Name("x0"), 1, 0, 1)
	x1 := p.AddVar(lp.Name("x1"), 1, 0, 1)
	x2 := p.AddVar(lp.Name("x2"), 0, 0, lp.Inf)
	// x0+x1 >= 3 is impossible over [0,1]^2; the extra one-sided rows
	// drag an unbounded variable in so the sign projection matters
	if err := p.AddGE(lp.Name("need3"), []int{x0, x1}, []float64{1, 1}, 3); err != nil {
		t.Fatal(err)
	}
	if err := p.AddLE(lp.Name("capx2"), []int{x2}, []float64{1}, 5); err != nil {
		t.Fatal(err)
	}
	if err := p.AddGE(lp.Name("link"), []int{x0, x2}, []float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	ray, viol, err := lp.FarkasRepair(p)
	if err != nil {
		t.Fatal(err)
	}
	if viol < 0.5 {
		t.Fatalf("violation = %v, want ~1 (x0+x1 misses 3 by 1)", viol)
	}
	c := &exact.Certificate{
		Kind:    exact.KindInfeasible,
		Search:  "farkas",
		FarkasY: exact.FloatVec(ray),
		Problem: exact.Snapshot(p),
	}
	c.Check()
	if !c.Valid {
		t.Fatalf("repaired ray failed exact replay: %s\n%+v", c.Summary(), c.Checks)
	}
}

// TestFarkasRepairFeasible: on a feasible LP the relaxation's optimum
// is zero — no violation, nothing to prove.
func TestFarkasRepairFeasible(t *testing.T) {
	p := &lp.Problem{}
	x0 := p.AddVar(lp.Name("x0"), 1, 0, 1)
	x1 := p.AddVar(lp.Name("x1"), 1, 0, 1)
	if err := p.AddGE(lp.Name("need1"), []int{x0, x1}, []float64{1, 1}, 1); err != nil {
		t.Fatal(err)
	}
	_, viol, err := lp.FarkasRepair(p)
	if err != nil {
		t.Fatal(err)
	}
	if viol > 1e-9 {
		t.Fatalf("violation = %v on a feasible LP, want 0", viol)
	}
}
