package exact

import (
	"encoding/json"
	"math"
	"math/big"
	"testing"
)

func TestFloatString(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{-3.5, "-7/2"},
		{math.Inf(1), "inf"},
		{math.Inf(-1), "-inf"},
	}
	for _, c := range cases {
		if got := FloatString(c.in); got != c.want {
			t.Errorf("FloatString(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	// 0.1 is not 1/10 in binary; the conversion must be exact, not pretty
	r, ok := new(big.Rat).SetString(FloatString(0.1))
	if !ok {
		t.Fatalf("FloatString(0.1) is not a rational: %q", FloatString(0.1))
	}
	f, exactConv := r.Float64()
	if f != 0.1 || !exactConv {
		t.Errorf("FloatString(0.1) round trip lost precision: %v", f)
	}
	// NaN renders but must fail parsing, so it surfaces as a failed check
	if _, err := parseNum(FloatString(math.NaN())); err == nil {
		t.Error("parseNum(FloatString(NaN)) should fail")
	}
}

func TestParseNum(t *testing.T) {
	for _, s := range []string{"inf", "+inf", "-inf", "3", "-7/2", "5"} {
		if _, err := parseNum(s); err != nil {
			t.Errorf("parseNum(%q) failed: %v", s, err)
		}
	}
	for _, s := range []string{"", "x", "1/0", "nan"} {
		if v, err := parseNum(s); err == nil && v.finite() && v.r == nil {
			t.Errorf("parseNum(%q) should fail or be well-formed", s)
		}
	}
	if v, _ := parseNum("inf"); v.finite() || v.inf != 1 {
		t.Error("inf parsed wrong")
	}
}

func TestCeilRat(t *testing.T) {
	cases := []struct{ in, want string }{
		{"3", "3"},
		{"7/2", "4"},
		{"-7/2", "-3"},
		{"-3", "-3"},
		{"1/10", "1"},
		{"-1/10", "0"},
	}
	for _, c := range cases {
		in, _ := new(big.Rat).SetString(c.in)
		if got := ceilRat(in).RatString(); got != c.want {
			t.Errorf("ceilRat(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestSnapRat(t *testing.T) {
	if r, snapped := snapRat(2.9999999999, 1e-6); !snapped || r.RatString() != "3" {
		t.Errorf("snapRat near 3: got %s snapped=%v", r.RatString(), snapped)
	}
	if r, snapped := snapRat(2.5, 1e-6); snapped || r.RatString() != "5/2" {
		t.Errorf("snapRat(2.5): got %s snapped=%v", r.RatString(), snapped)
	}
}

// coverProblem is a tiny 0-1 covering model with a known optimum:
//
//	min  x0 + x1   s.t.  x0 + x1 >= 1,  x in [0,1]^2
//
// Optimum 1, e.g. x = (1, 0); the dual y = 1 proves the bound exactly.
func coverProblem() *Problem {
	return &Problem{
		Obj: []string{"1", "1"},
		Lo:  []string{"0", "0"},
		Hi:  []string{"1", "1"},
		Rows: []Row{
			{Idx: []int{0, 1}, Val: []string{"1", "1"}, Lo: "1", Hi: "inf"},
		},
	}
}

func coverCertificate() *Certificate {
	return &Certificate{
		Version:     1,
		Kind:        KindOptimal,
		Objective:   "1",
		Bound:       "1",
		ObjIntegral: true,
		IntVars:     []int{0, 1},
		X:           []string{"1", "0"},
		DualY:       []string{"1"},
		Problem:     coverProblem(),
	}
}

func TestCertificateOptimal(t *testing.T) {
	c := coverCertificate()
	c.Check()
	if !c.Valid {
		t.Fatalf("certificate should validate: %s\n%+v", c.Summary(), c.Checks)
	}
	if c.ExactObjective != "1" {
		t.Errorf("ExactObjective = %q, want 1", c.ExactObjective)
	}
	if c.ExactBound != "1" {
		t.Errorf("ExactBound = %q, want 1", c.ExactBound)
	}
	// idempotent: re-running must reproduce the verdict, not append
	n := len(c.Checks)
	c.Check()
	if !c.Valid || len(c.Checks) != n {
		t.Errorf("Check is not idempotent: valid=%v checks %d -> %d", c.Valid, n, len(c.Checks))
	}
}

// TestCertificateInjectedBug is the acceptance-criteria test: perturb
// the objective row of an otherwise-valid certificate and watch the
// exact re-verification catch the now-wrong verdict.
func TestCertificateInjectedBug(t *testing.T) {
	c := coverCertificate()
	c.Check()
	if !c.Valid {
		t.Fatalf("precondition: certificate must validate before the injection")
	}
	c.Problem.Obj[0] = "2" // injected bug: objective row perturbed
	c.Check()
	if c.Valid {
		t.Fatal("certificate validated against a perturbed objective row")
	}
	found := false
	for _, ch := range c.Checks {
		if ch.Name == "incumbent-objective" && !ch.OK {
			found = true
		}
	}
	if !found {
		t.Errorf("expected incumbent-objective to fail, got %+v", c.Checks)
	}
}

func TestCertificateInjectedInfeasiblePoint(t *testing.T) {
	c := coverCertificate()
	c.X = []string{"0", "0"} // violates the covering row
	c.Check()
	if c.Valid {
		t.Fatal("certificate validated an infeasible incumbent")
	}
}

func TestCertificateFractionalIntVar(t *testing.T) {
	c := coverCertificate()
	c.X = []string{"1/2", "1/2"} // row feasible but fractional
	c.Check()
	if c.Valid {
		t.Fatal("certificate validated a fractional integer incumbent")
	}
}

func TestCertificateFarkas(t *testing.T) {
	// x in [0,1] with the row x >= 2: infeasible, y = 1 separates —
	// the row interval [2, inf] is disjoint from the box interval [0, 1].
	c := &Certificate{
		Kind:    KindInfeasible,
		Search:  "farkas",
		FarkasY: []string{"1"},
		Problem: &Problem{
			Obj:  []string{"0"},
			Lo:   []string{"0"},
			Hi:   []string{"1"},
			Rows: []Row{{Idx: []int{0}, Val: []string{"1"}, Lo: "2", Hi: "inf"}},
		},
	}
	c.Check()
	if !c.Valid {
		t.Fatalf("Farkas certificate should validate: %+v", c.Checks)
	}
	// a zero ray separates nothing: the replay must fail, not pass
	c.FarkasY = []string{"0"}
	c.Check()
	if c.Valid {
		t.Fatal("zero Farkas ray validated")
	}
}

func TestCertificateExhaustedInfeasible(t *testing.T) {
	// a priming upper bound of 0 with every objective >= 1: the tree is
	// exhausted and the certified root bound backs the claim
	c := &Certificate{
		Kind:         KindInfeasible,
		Search:       "exhausted",
		InitialUpper: "0",
		ObjIntegral:  true,
		DualY:        []string{"1"},
		Problem:      coverProblem(),
	}
	c.Check()
	if !c.Valid {
		t.Fatalf("exhausted-infeasible certificate should validate: %+v", c.Checks)
	}
	if c.ExactBound != "1" {
		t.Errorf("ExactBound = %q, want 1", c.ExactBound)
	}
}

func TestCertificateWitnessRules(t *testing.T) {
	// an optimality claim with no incumbent must not validate
	c := coverCertificate()
	c.X, c.IntVars, c.Objective = nil, nil, ""
	c.Check()
	if c.Valid {
		t.Fatal("optimal certificate with no incumbent validated")
	}
	// an infeasibility claim with neither Farkas ray nor exhaustion
	c = &Certificate{Kind: KindInfeasible, Problem: coverProblem()}
	c.Check()
	if c.Valid {
		t.Fatal("bare infeasibility claim validated")
	}
	// unknown kinds never validate
	c = coverCertificate()
	c.Kind = "lucky"
	c.Check()
	if c.Valid {
		t.Fatal("unknown certificate kind validated")
	}
	// no problem snapshot: nothing to check against
	c = coverCertificate()
	c.Problem = nil
	c.Check()
	if c.Valid {
		t.Fatal("certificate without problem snapshot validated")
	}
}

func TestCertificateClaimedBound(t *testing.T) {
	// a claimed tree bound above the incumbent objective means the
	// search pruned the true optimum away — the cross-check must fail
	c := coverCertificate()
	c.Bound = "2"
	c.Check()
	if c.Valid {
		t.Fatal("claimed bound above the incumbent objective validated")
	}
}

func TestCertificateJSONRoundTrip(t *testing.T) {
	c := coverCertificate()
	c.Label = "cover"
	c.Check()
	if !c.Valid {
		t.Fatalf("precondition: %+v", c.Checks)
	}
	blob, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Certificate
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	back.Check() // offline re-verification from the decoded bytes alone
	if !back.Valid {
		t.Fatalf("decoded certificate failed re-verification: %+v", back.Checks)
	}
	if back.ExactObjective != c.ExactObjective || back.ExactBound != c.ExactBound {
		t.Errorf("round trip changed exact values: %q/%q vs %q/%q",
			back.ExactObjective, back.ExactBound, c.ExactObjective, c.ExactBound)
	}
	if back.Label != "cover" || back.Kind != KindOptimal {
		t.Errorf("round trip lost identity fields: %+v", back)
	}
}

func TestSummary(t *testing.T) {
	c := coverCertificate()
	c.Check()
	s := c.Summary()
	if s == "" || c.Summary() != s {
		t.Errorf("Summary unstable: %q", s)
	}
}

func TestDualBoundUnboundedVariable(t *testing.T) {
	// a reduced cost over an unbounded range yields no finite bound;
	// the dual-bound check must fail rather than fabricate one
	c := &Certificate{
		Kind:      KindFeasible,
		Objective: "0",
		X:         []string{"0"},
		DualY:     []string{"0"},
		Problem: &Problem{
			Obj:  []string{"1"},
			Lo:   []string{"-inf"},
			Hi:   []string{"inf"},
			Rows: []Row{{Idx: []int{0}, Val: []string{"1"}, Lo: "0", Hi: "inf"}},
		},
	}
	c.Check()
	if c.Valid {
		t.Fatal("certificate with an unbounded dual term validated")
	}
}

func TestProblemParseErrors(t *testing.T) {
	bad := []*Problem{
		{Obj: []string{"1"}, Lo: []string{"0"}, Hi: []string{}},                                                         // shape
		{Obj: []string{"inf"}, Lo: []string{"0"}, Hi: []string{"1"}},                                                    // infinite objective
		{Obj: []string{"1"}, Lo: []string{"0"}, Hi: []string{"1"}, Rows: []Row{{Idx: []int{3}, Val: []string{"1"}}}},    // index range
		{Obj: []string{"1"}, Lo: []string{"0"}, Hi: []string{"1"}, Rows: []Row{{Idx: []int{0}, Val: []string{"x"}}}},    // bad rational
		{Obj: []string{"1"}, Lo: []string{"0"}, Hi: []string{"1"}, Rows: []Row{{Idx: []int{0, 1}, Val: []string{"1"}}}}, // idx/val mismatch
	}
	for i, p := range bad {
		if _, err := p.parse(); err == nil {
			t.Errorf("case %d: parse should fail", i)
		}
	}
}
