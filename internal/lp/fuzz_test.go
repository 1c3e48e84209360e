package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/exact"
)

// FuzzDifferential cross-checks the revised (LU + eta file) simplex
// every solve runs against the dense-tableau reference on random sparse
// bounded-variable LPs. The contract:
//
//   - statuses agree (optimal / infeasible / unbounded),
//   - optimal objectives agree within feasTol (scaled),
//   - each engine's verdict certifies under internal/exact — basis
//     optimality (exact primal/dual feasibility + complementary
//     slackness) for optimal, Farkas-ray replay for infeasible —
//     so BOTH engines must be right, not merely agree,
//   - a warm re-solve after the same bound tightening agrees again.
//
// Crashers land under testdata/fuzz/FuzzDifferential. Run locally with
//
//	go test -fuzz=FuzzDifferential -fuzztime=60s ./internal/lp/
//
// (see EXPERIMENTS.md). CI runs the same invocation for 60 seconds.
func FuzzDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 7, 13, 42, 1998, 20260808} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkEnginesAgree(t, seed)
	})
}

// TestEnginesAgreeSweep runs the differential body over a fixed seed
// range on every plain `go test`, so engine parity does not depend on
// anyone running the fuzzer.
func TestEnginesAgreeSweep(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		seed := seed
		checkEnginesAgree(t, seed)
	}
}

// randLP generates a small random sparse bounded LP: mixed finite /
// infinite variable bounds, LE/GE/EQ/range rows, small half-integer
// coefficients (exactly representable, so the exact layer snapshots
// them losslessly). Row count stays small: the exact basis check is
// O(m³) in rational arithmetic.
func randLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(10)
	m := 1 + rng.Intn(10)
	p := &Problem{}
	half := func(span int) float64 { return float64(rng.Intn(2*span+1)-span) / 2 }
	for j := 0; j < n; j++ {
		lo, hi := 0.0, 0.0
		switch rng.Intn(5) {
		case 0:
			lo, hi = math.Inf(-1), half(8)+8
		case 1:
			lo, hi = half(8)-8, math.Inf(1)
		case 2:
			lo, hi = math.Inf(-1), math.Inf(1)
		case 3:
			lo = half(8)
			hi = lo // fixed
		default:
			lo = half(8) - 4
			hi = lo + float64(rng.Intn(17))/2
		}
		p.AddVar(Name(""), half(6), lo, hi)
	}
	for i := 0; i < m; i++ {
		k := 1 + rng.Intn(4)
		if k > n {
			k = n
		}
		perm := rng.Perm(n)[:k]
		idx := append([]int(nil), perm...)
		for a := 1; a < len(idx); a++ { // ascending for AddRow
			for b := a; b > 0 && idx[b] < idx[b-1]; b-- {
				idx[b], idx[b-1] = idx[b-1], idx[b]
			}
		}
		val := make([]float64, k)
		for a := range val {
			for val[a] == 0 {
				val[a] = half(6)
			}
		}
		rhs := half(20)
		var err error
		switch rng.Intn(4) {
		case 0:
			err = p.AddLE(Name(""), idx, val, rhs)
		case 1:
			err = p.AddGE(Name(""), idx, val, rhs)
		case 2:
			err = p.AddEQ(Name(""), idx, val, rhs)
		default:
			err = p.AddRow(Name(""), idx, val, rhs, rhs+float64(rng.Intn(13))/2)
		}
		if err != nil {
			panic(err)
		}
	}
	return p
}

// certifyFarkas exact-replays a candidate ray, first verbatim, then
// with its multipliers snapped to nearby small rationals
// (rationalizeRay) — the form the true duals of small-rational row data
// take. The exact checker judges both; only candidate generation varies.
func certifyFarkas(p *Problem, ray []float64) bool {
	for _, fy := range [][]string{exact.FloatVec(ray), rationalizeRay(ray, 1<<16)} {
		c := &exact.Certificate{
			Kind:    exact.KindInfeasible,
			Search:  "farkas",
			FarkasY: fy,
			Problem: exact.Snapshot(p),
		}
		c.Check()
		if c.Valid {
			return true
		}
	}
	return false
}

// certifyOptimal exact-replays a solver's optimal basis. The
// certificate carries the basis only — no X (vertex coordinates can
// have denominators a float cannot round-trip; the exact checker
// derives the exact point from the basis instead) and no DualY (the
// basis replay — primal/dual feasibility + slackness — is the complete
// optimality proof; float duals with roundoff-sized reduced costs on
// free variables would only fail the separate safe-dual-bound check
// spuriously).
func certifyOptimal(p *Problem, s *Solver) (bool, *exact.Certificate) {
	c := &exact.Certificate{
		Version:   1,
		Kind:      exact.KindOptimal,
		Objective: exact.FloatString(s.Objective()),
		Basis:     s.BasisRows(),
		VarPos:    s.VarPositions(),
		Problem:   exact.Snapshot(p),
	}
	c.Check()
	return c.Valid, c
}

// rationalizeRay renders a float ray as exact rational strings for the
// exact-certification layer, snapping each multiplier to the nearest
// rational with denominator at most maxDen when one lies within a
// relative 1e-9 of the float value (continued-fraction best
// approximation). Optimal duals of an LP with small-rational data ARE
// small rationals; the float solve only reports them to roundoff, and
// replaying the rounded values verbatim can leave residual ~1e-16
// coefficients on unbounded variables that widen the replayed interval
// to ±inf, hiding a perfectly good proof. Snapping restores the exact
// cancellation. This is candidate generation only — the exact replay
// downstream remains the judge, so a bad snap can never fabricate a
// proof. Entries with no nearby small rational pass through as the
// exact value of the float.
func rationalizeRay(y []float64, maxDen int64) []string {
	out := make([]string, len(y))
	for i, v := range y {
		out[i] = rationalize(v, maxDen)
	}
	return out
}

func rationalize(v float64, maxDen int64) string {
	if v == 0 {
		return "0"
	}
	if !math.IsInf(v, 0) && !math.IsNaN(v) && math.Abs(v) < 1e15 {
		if num, den, ok := ratApprox(v, maxDen); ok {
			if approx := float64(num) / float64(den); math.Abs(approx-v) <= 1e-9*(1+math.Abs(v)) {
				return fmt.Sprintf("%d/%d", num, den)
			}
		}
	}
	r := new(big.Rat).SetFloat64(v)
	if r == nil {
		return "0"
	}
	return r.RatString()
}

// ratApprox computes the best rational approximation num/den of x with
// den <= maxDen by continued fractions.
func ratApprox(x float64, maxDen int64) (num, den int64, ok bool) {
	neg := x < 0
	if neg {
		x = -x
	}
	var h0, k0, h1, k1 int64 = 0, 1, 1, 0
	f := x
	for i := 0; i < 64; i++ {
		fa := math.Floor(f)
		if fa > float64(math.MaxInt64)/2 {
			break
		}
		a := int64(fa)
		h2, k2 := a*h1+h0, a*k1+k0
		if k2 > maxDen || k2 < 0 || h2 < 0 {
			break
		}
		h0, k0, h1, k1 = h1, k1, h2, k2
		frac := f - fa
		if frac < 1e-12 {
			break
		}
		f = 1 / frac
	}
	if k1 == 0 {
		return 0, 0, false
	}
	if neg {
		h1 = -h1
	}
	return h1, k1, true
}

func checkEnginesAgree(t *testing.T, seed int64) {
	t.Helper()
	p := randLP(seed)
	dense, err := newDenseSolver(p)
	if err != nil {
		t.Fatalf("seed %d: dense: %v", seed, err)
	}
	revised, err := NewSolver(p)
	if err != nil {
		t.Fatalf("seed %d: revised: %v", seed, err)
	}
	dense.CaptureFarkas = true
	revised.CaptureFarkas = true
	std := dense.Solve()
	str := revised.Solve()
	if std == StatusIterLimit || str == StatusIterLimit {
		t.Skipf("seed %d: iteration limit (dense %v, revised %v)", seed, std, str)
	}
	if std != str {
		t.Fatalf("seed %d: status mismatch: dense %v, revised %v", seed, std, str)
	}
	switch std {
	case StatusOptimal:
		od, or := dense.Objective(), revised.Objective()
		if tol := feasTol * (1 + math.Abs(od)); math.Abs(od-or) > tol {
			t.Fatalf("seed %d: objective mismatch: dense %v, revised %v", seed, od, or)
		}
		for name, s := range map[string]*Solver{"dense": dense, "revised": revised} {
			if ok, c := certifyOptimal(p, s); !ok {
				t.Fatalf("seed %d: %s basis certificate invalid: %s\n%+v",
					seed, name, c.Summary(), c.Checks)
			}
		}
	case StatusInfeasible:
		for name, s := range map[string]*Solver{"dense": dense, "revised": revised} {
			ray := s.FarkasRay()
			if ray == nil {
				t.Fatalf("seed %d: %s verdict infeasible without a ray", seed, name)
			}
			if certifyFarkas(p, ray) {
				continue
			}
			// the raw ray failed exact replay; the pipeline's fallback
			// (milp.attachCertificate) re-derives one from the elastic
			// relaxation — the verdict must be provable through it
			repaired, viol, err := FarkasRepair(p)
			if err != nil || viol <= 0 || !certifyFarkas(p, repaired) {
				t.Fatalf("seed %d: %s infeasibility not exactly provable (repair viol %v, err %v)",
					seed, name, viol, err)
			}
		}
	}
	// warm-edit parity: re-solving after the same bound tightening must
	// again agree (the delta engine's SetBound/ReOptimize path)
	if std == StatusOptimal && p.NumVars() > 0 {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		j := rng.Intn(p.NumVars())
		lo, hi := dense.Bound(j)
		if !math.IsInf(hi, 1) && !math.IsInf(lo, -1) && hi > lo {
			mid := math.Floor(lo + (hi-lo)/2)
			if mid >= lo {
				dense.SetBound(j, lo, mid)
				revised.SetBound(j, lo, mid)
				wd, wr := dense.ReOptimize(), revised.ReOptimize()
				if wd == StatusIterLimit || wr == StatusIterLimit {
					return
				}
				if wd != wr {
					t.Fatalf("seed %d: warm status mismatch on x%d<=%v: dense %v, revised %v",
						seed, j, mid, wd, wr)
				}
				if wd == StatusOptimal {
					od, or := dense.Objective(), revised.Objective()
					if tol := feasTol * (1 + math.Abs(od)); math.Abs(od-or) > tol {
						t.Fatalf("seed %d: warm objective mismatch: dense %v, revised %v", seed, od, or)
					}
				}
			}
		}
	}
}
