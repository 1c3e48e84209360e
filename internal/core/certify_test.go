package core

import (
	"testing"

	"repro/internal/exact"
)

// TestCertifyLabelsGraph: a certified optimal solve at the core layer
// carries a valid certificate labeled with the instance's graph name.
func TestCertifyLabelsGraph(t *testing.T) {
	inst := smokeInstance(t)
	res, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Optimal {
		t.Fatalf("feasible=%v optimal=%v", res.Feasible, res.Optimal)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("no certificate attached")
	}
	if c.Label != "smoke" {
		t.Fatalf("label = %q, want the graph name", c.Label)
	}
	if c.Kind != exact.KindOptimal {
		t.Fatalf("kind = %q", c.Kind)
	}
	if !c.Valid {
		t.Fatalf("certificate failed: %s\n%+v", c.Summary(), c.Checks)
	}
}

// TestCertifyInfeasibleInstance: an infeasible instance (the forced
// 3-way split squeezed into 2 partitions) certifies its verdict too.
func TestCertifyInfeasibleInstance(t *testing.T) {
	inst := smokeInstance(t)
	inst.Device.CapacityFG = 100 // mul and add cannot coexist
	res, err := SolveInstance(inst, Options{N: 2, L: 2, Tightened: true, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || !res.Optimal {
		t.Fatalf("feasible=%v optimal=%v, want proven infeasible", res.Feasible, res.Optimal)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("no certificate attached to the infeasibility verdict")
	}
	if c.Kind != exact.KindInfeasible {
		t.Fatalf("kind = %q", c.Kind)
	}
	if !c.Valid {
		t.Fatalf("certificate failed: %s\n%+v", c.Summary(), c.Checks)
	}
}

// TestCertifySweepPathNoCertificate: when the exact sweep settles the
// whole instance the MILP never runs, so there is nothing certified —
// the result must not carry a certificate that was never computed.
func TestCertifySweepPathNoCertificate(t *testing.T) {
	inst := smokeInstance(t)
	res, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true, Certify: true, ExactSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Optimal {
		t.Fatalf("feasible=%v optimal=%v", res.Feasible, res.Optimal)
	}
	if res.Nodes == 0 && res.Certificate != nil {
		t.Fatalf("sweep-settled result carries a certificate: %+v", res.Certificate)
	}
}
