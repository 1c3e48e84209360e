package milp

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/lp"
	"repro/internal/trace"
)

// TestCertifyOptimalKnapsack: a Certify solve of an optimal MILP must
// attach a valid optimal certificate whose exact objective matches the
// float verdict.
func TestCertifyOptimalKnapsack(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5}
	weights := []float64{2, 3, 2, 5, 1}
	p, cols := knapsack(values, weights, 7)
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("no certificate attached")
	}
	if c.Kind != exact.KindOptimal {
		t.Fatalf("kind = %q", c.Kind)
	}
	if !c.Valid {
		t.Fatalf("certificate invalid: %s\n%+v", c.Summary(), c.Checks)
	}
	if c.ExactObjective != exact.FloatString(res.Objective) {
		t.Errorf("exact objective %q vs float %v", c.ExactObjective, res.Objective)
	}
	if len(c.Trusted) == 0 {
		t.Error("trust boundary not documented on the certificate")
	}
}

// TestCertifyInfeasibleFarkas: a root-infeasible MILP must carry an
// exactly-replayed Farkas certificate.
func TestCertifyInfeasibleFarkas(t *testing.T) {
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), 1)
	y := p.AddBinary(lp.Name("y"), 1)
	_ = p.AddGE(lp.Name("g"), []int{x, y}, []float64{1, 1}, 3)
	res, err := solve(p, Options{IntVars: []int{x, y}, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("no certificate attached to the infeasibility verdict")
	}
	if c.Kind != exact.KindInfeasible || c.Search != "farkas" {
		t.Fatalf("kind=%q search=%q, want infeasible/farkas", c.Kind, c.Search)
	}
	if !c.Valid {
		t.Fatalf("Farkas certificate invalid: %s\n%+v", c.Summary(), c.Checks)
	}
}

// TestCertifyOffAttachesNothing: without Certify the result must stay
// certificate-free — the audit mode is strictly opt-in.
func TestCertifyOffAttachesNothing(t *testing.T) {
	values := []float64{10, 13, 8}
	weights := []float64{2, 3, 2}
	p, cols := knapsack(values, weights, 4)
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certificate != nil {
		t.Fatalf("certificate attached without Certify: %+v", res.Certificate)
	}
}

// TestCertifyEmitsTraceEventAndRecordingLine: certification surfaces
// on both observability channels — a trace event of KindCertificate
// and a certificate embedded in the flight recording.
func TestCertifyEmitsTraceEventAndRecordingLine(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5}
	weights := []float64{2, 3, 2, 5, 1}
	p, cols := knapsack(values, weights, 7)
	ring := trace.NewRing(256)
	rec := trace.NewRecorder(0)
	_, err := solve(p, Options{
		IntVars: cols, ObjIntegral: true, Certify: true,
		Trace: trace.New(ring), Record: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ringEvents(ring) {
		if e.Kind == trace.KindCertificate {
			found = true
			if e.Status != exact.KindOptimal || e.Msg == "" {
				t.Fatalf("certificate event malformed: %+v", e)
			}
		}
	}
	if !found {
		t.Error("no certificate trace event emitted")
	}
	snap := rec.Snapshot()
	if snap.Certificate == nil {
		t.Fatal("recording carries no certificate")
	}
	snap.Certificate.Check()
	if !snap.Certificate.Valid {
		t.Fatalf("recorded certificate failed re-verification: %+v", snap.Certificate.Checks)
	}
}

// TestCertifyExhaustedWithInitialUpper: a search primed with an
// initial upper bound that excludes every solution ends infeasible by
// exhaustion; the certificate leans on the exactly-certified root
// bound and records the priming bound.
func TestCertifyExhaustedWithInitialUpper(t *testing.T) {
	// min x+y s.t. x+y >= 1: optimum 1, so "strictly better than 1"
	// is unachievable and the primed search exhausts
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), 1)
	y := p.AddBinary(lp.Name("y"), 1)
	_ = p.AddGE(lp.Name("cover"), []int{x, y}, []float64{1, 1}, 1)
	res, err := solve(p, Options{IntVars: []int{x, y}, ObjIntegral: true, InitialUpper: 1, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (nothing beats the primed bound)", res.Status)
	}
	c := res.Certificate
	if c == nil {
		t.Fatal("no certificate attached")
	}
	if c.Search == "farkas" {
		// the root LP (optimum 1 > upper cutoff) may or may not be cut
		// off as infeasible depending on the cutoff row; both proofs are
		// acceptable, but whichever is claimed must verify
		t.Logf("root cutoff produced a Farkas proof")
	}
	if !c.Valid {
		t.Fatalf("exhausted certificate invalid: %s\n%+v", c.Summary(), c.Checks)
	}
	if c.InitialUpper == "" {
		t.Error("priming bound not recorded on the certificate")
	}
}

// TestCertifyParallelMatchesSerial: certification is captured at the
// root before workers fork, so a parallel solve must certify exactly
// like the serial one.
func TestCertifyParallelMatchesSerial(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5, 7, 9, 4}
	weights := []float64{2, 3, 2, 5, 1, 2, 3, 1}
	build := func() (*lp.Problem, []int) { return knapsack(values, weights, 9) }

	ps, cs := build()
	serial, err := solve(ps, Options{IntVars: cs, ObjIntegral: true, Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	pp, cp := build()
	par, err := solve(pp, Options{IntVars: cp, ObjIntegral: true, Certify: true,
		Parallelism: 4, ParallelThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{serial, par} {
		if res.Status != StatusOptimal {
			t.Fatalf("status = %v", res.Status)
		}
		if res.Certificate == nil || !res.Certificate.Valid {
			t.Fatalf("certificate missing or invalid: %+v", res.Certificate)
		}
	}
	if serial.Certificate.ExactObjective != par.Certificate.ExactObjective {
		t.Fatalf("serial and parallel certified objectives diverge: %q vs %q",
			serial.Certificate.ExactObjective, par.Certificate.ExactObjective)
	}
}
