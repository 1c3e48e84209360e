package milp

import (
	"math"

	"repro/internal/exact"
	"repro/internal/lp"
	"repro/internal/trace"
)

// rootWitness holds the floating-point witnesses captured from the
// root LP solve before branch and bound mutates the solver in place:
// the row duals behind the safe dual bound, the terminal root basis
// (only on models small enough for the O(m^3) exact factorization) and
// the Farkas multipliers of a root infeasibility.
type rootWitness struct {
	duals  []float64
	basis  []int
	varPos []int8
	farkas []float64
}

// attachCertificate builds the exact certificate for res, checks it,
// and attaches it to the result, the flight recorder and the trace
// stream. Limit outcomes without an incumbent carry nothing
// certifiable and get no certificate.
func (s *solver) attachCertificate(p *lp.Problem, res *Result, rw rootWitness) {
	c := buildCertificate(p, &s.opt, res, rw)
	if c == nil {
		return
	}
	if !c.Valid && c.Kind == exact.KindInfeasible && rw.duals == nil {
		// Root infeasibility whose tableau ray failed exact replay (or
		// escaped capture entirely): re-derive the ray from the elastic
		// feasibility relaxation, whose optimal duals come from a clean
		// basis instead of a drifted tableau, and re-check. A near-zero
		// violation means the claim is not exactly provable; the
		// original (invalid) certificate then stands — honestly.
		if ray, viol, err := lp.FarkasRepair(p); err == nil && viol > 0 {
			rw.farkas = ray
			if repaired := buildCertificate(p, &s.opt, res, rw); repaired != nil && repaired.Valid {
				c = repaired
			}
		}
	}
	res.Certificate = c
	o := &s.sh.obs
	o.rec.SetCertificate(c) // nil-receiver safe
	if o.tr != nil {
		o.tr.Emit(trace.Event{Kind: trace.KindCertificate, Status: c.Kind, Msg: c.Summary()})
	}
	if !c.Valid && o.bb != nil {
		// A failed certification is exactly the anomaly the black box
		// exists for: the verdict is suspect, keep the recent history.
		o.bb.Anomaly(trace.BBEvent{Kind: trace.BBCertify, Msg: "certificate invalid: " + c.Summary()},
			"certify-failed")
	}
}

// buildCertificate assembles and checks the certificate for a finished
// solve. The problem snapshot is taken from the solver's own input p —
// upstream model construction and presolve are deliberately outside the
// certified boundary and listed in Trusted.
func buildCertificate(p *lp.Problem, opt *Options, res *Result, rw rootWitness) *exact.Certificate {
	c := &exact.Certificate{
		Version:     1,
		ObjIntegral: opt.ObjIntegral,
		Problem:     exact.Snapshot(p),
		Trusted: []string{
			"model construction and presolve transformations upstream of the MILP (checks run against the solver's own row data)",
		},
	}
	switch res.Status {
	case StatusOptimal:
		c.Kind = exact.KindOptimal
		c.Trusted = append(c.Trusted,
			"branch-and-bound pruning and tree exhaustion (the gap between the certified root bound and the incumbent)")
	case StatusInfeasible:
		c.Kind = exact.KindInfeasible
		switch {
		case len(rw.farkas) > 0:
			c.Search = "farkas"
		case rw.duals != nil:
			// the search ran and exhausted the tree; the root duals
			// back the exactly-certified bound the witness check needs
			c.Search = "exhausted"
			c.Trusted = append(c.Trusted, "branch-and-bound subtree exhaustion")
		default:
			// a root infeasibility that escaped Farkas capture: there is
			// no exact witness, and the certificate must say so rather
			// than masquerade as an exhausted search (fuzzer-found)
			c.Search = "uncertified"
		}
	case StatusFeasible, StatusNodeLimit, StatusCancelled:
		if res.X == nil {
			return nil
		}
		c.Kind = exact.KindFeasible
		c.Trusted = append(c.Trusted, "the claimed best bound beyond the certified root bound")
	default: // StatusLimit: no incumbent, no proof — nothing to certify
		return nil
	}
	if res.CutsApplied > 0 {
		// the certificate proves bound and feasibility for the
		// cut-augmented model it snapshots; the cuts' own validity for
		// the integer hull is a float-arithmetic separation argument
		c.Trusted = append(c.Trusted,
			"validity of the root cutting planes (float-separated cover cuts included in the certified model)")
	}
	if res.X != nil {
		c.X = exact.FloatVec(res.X)
		c.Objective = exact.FloatString(res.Objective)
		c.IntVars = append([]int(nil), opt.IntVars...)
	}
	if !math.IsInf(res.BestBound, -1) {
		c.Bound = exact.FloatString(res.BestBound)
	}
	if opt.InitialUpper != 0 && !math.IsInf(opt.InitialUpper, 1) {
		// an exhausted search primed with InitialUpper proves "nothing
		// strictly better than this exists", not plain infeasibility
		c.InitialUpper = exact.FloatString(opt.InitialUpper)
	}
	c.FarkasY = exact.FloatVec(rw.farkas)
	c.DualY = exact.FloatVec(rw.duals)
	c.Basis = rw.basis
	c.VarPos = rw.varPos
	c.Check()
	return c
}
