package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestBenchSuiteCertifies is the acceptance gate of the certification
// layer: every instance of the MILP benchmark suite, solved with
// Certify on, must come back with a certificate that re-verifies in
// exact arithmetic. Skipped under -short — the suite is the full
// branch-and-bound workload.
func TestBenchSuiteCertifies(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-suite solves are long")
	}
	suite, err := MILPBench()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range suite {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opt := e.Opt
			opt.Certify = true
			res, err := core.SolveInstance(e.Inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Optimal {
				t.Fatalf("suite instance did not solve to optimality: %+v", res)
			}
			c := res.Certificate
			if c == nil {
				t.Fatal("certified solve attached no certificate")
			}
			if !c.Valid {
				t.Fatalf("certificate failed: %s\n%+v", c.Summary(), c.Checks)
			}
			c.Check() // idempotent: re-checking must not flip the verdict
			if !c.Valid {
				t.Fatal("certificate invalid on re-check")
			}
		})
	}
}
