package exact

import (
	"fmt"
	"math/big"
)

// Certificate kinds: what the solver claims about the instance.
const (
	// KindOptimal claims the embedded incumbent is a proved optimum.
	KindOptimal = "optimal"
	// KindFeasible claims the incumbent is feasible (a limit stopped
	// the optimality proof).
	KindFeasible = "feasible"
	// KindInfeasible claims no integer-feasible solution exists (or
	// none better than InitialUpper when that is set).
	KindInfeasible = "infeasible"
)

// IntTol is the integrality snap tolerance of incumbent certification:
// components of a claimed-integral incumbent within IntTol of an
// integer are snapped to it before the exact evaluation, matching the
// MILP solver's own integrality tolerance. The snapped point — not the
// float one — is what the certificate proves feasible.
const IntTol = 1e-6

// BasisCertLimit is the largest row count for which the exact basis
// certification (rational Gaussian elimination, O(m^3) big.Rat work) is
// attached automatically. Beyond it the O(nnz) safe dual bound carries
// the certificate; benchmark-size models fall in that regime.
const BasisCertLimit = 150

// relTol is the reconciliation tolerance between a claimed float value
// and its exact recomputation when the objective is not declared
// integral: |exact - claimed| <= relTol * (1 + |exact|).
var relTol = big.NewRat(1, 1_000_000)

// Variable positions of a terminal basis snapshot, matching
// lp.Solver.VarPositions: index i of the VarPos slice describes
// variable i of the (structural ++ logical) ordering.
const (
	PosBasic int8 = iota
	PosLower
	PosUpper
	PosFree
)

// Check is one named exact verification step with its outcome.
type Check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Certificate is a self-contained, re-checkable record of a solver
// verdict: the claim (Kind, Objective, Bound), the witnesses that
// support it, and a rational snapshot of the problem they are checked
// against. Check() recomputes every check from the embedded data only,
// so a decoded certificate re-verifies offline exactly as it did when
// it was attached.
//
// What is certified exactly and what is trusted is part of the
// contract (see DESIGN.md): incumbent feasibility/objective, the root
// dual bound, a root basis (when small enough) and Farkas infeasibility
// replays are exact; branch-and-bound pruning and upstream model
// transformations are trusted and listed in Trusted.
type Certificate struct {
	Version int    `json:"v"`
	Label   string `json:"label,omitempty"`
	Kind    string `json:"kind"`

	// The solver's claims, as exact rational strings: the incumbent
	// objective, the proved lower bound, and the priming upper bound
	// when the search was told only to beat a known solution.
	Objective    string `json:"objective,omitempty"`
	Bound        string `json:"bound,omitempty"`
	InitialUpper string `json:"initial_upper,omitempty"`
	// ObjIntegral declares every integer-feasible objective integral,
	// enabling exact ceil-rounding of dual bounds.
	ObjIntegral bool `json:"obj_integral,omitempty"`
	// Search states how much of the verdict rests on the search
	// itself: "farkas" (root infeasibility, exactly replayed) or
	// "exhausted" (tree exhausted; pruning trusted). Empty otherwise.
	Search string `json:"search,omitempty"`

	// Witnesses. X is the claimed incumbent (structural variables),
	// DualY the root-LP row duals behind the safe dual bound, FarkasY
	// the row multipliers of an infeasibility proof, Basis/VarPos the
	// terminal root basis for the exact LP certification.
	IntVars []int    `json:"int_vars,omitempty"`
	X       []string `json:"x,omitempty"`
	DualY   []string `json:"dual_y,omitempty"`
	FarkasY []string `json:"farkas_y,omitempty"`
	Basis   []int    `json:"basis,omitempty"`
	VarPos  []int8   `json:"var_pos,omitempty"`

	// Problem is the rational snapshot the checks evaluate against.
	Problem *Problem `json:"problem,omitempty"`

	// Trusted lists the claims the certificate does NOT verify and
	// relies on instead — the documented trust boundary.
	Trusted []string `json:"trusted,omitempty"`

	// Results of the last Check call.
	Checks         []Check `json:"checks,omitempty"`
	Valid          bool    `json:"valid"`
	ExactObjective string  `json:"exact_objective,omitempty"`
	ExactBound     string  `json:"exact_bound,omitempty"`
}

// add records a check outcome and returns ok for chaining.
func (c *Certificate) add(name string, ok bool, detail string) bool {
	c.Checks = append(c.Checks, Check{Name: name, OK: ok, Detail: detail})
	return ok
}

// Summary is a one-line human-readable digest for logs and CLIs.
func (c *Certificate) Summary() string {
	state := "INVALID"
	if c.Valid {
		state = "valid"
	}
	passed := 0
	for _, ch := range c.Checks {
		if ch.OK {
			passed++
		}
	}
	s := fmt.Sprintf("%s %s certificate, %d/%d checks passed", state, c.Kind, passed, len(c.Checks))
	if c.ExactObjective != "" {
		s += ", objective " + c.ExactObjective
	}
	if c.ExactBound != "" {
		s += ", bound " + c.ExactBound
	}
	return s
}

// Check (re)runs every applicable exact verification from the embedded
// data only, filling Checks, ExactObjective, ExactBound and Valid. It
// is idempotent: re-running on a decoded certificate reproduces the
// attachment-time verdict.
func (c *Certificate) Check() {
	c.Checks = c.Checks[:0]
	c.Valid = false
	c.ExactObjective, c.ExactBound = "", ""
	if c.Problem == nil {
		c.add("problem", false, "no problem snapshot embedded")
		return
	}
	p, err := c.Problem.parse()
	if err != nil {
		c.add("problem", false, err.Error())
		return
	}
	c.add("problem", true, fmt.Sprintf("%d variables, %d rows", p.n, len(p.rows)))

	var xObj *big.Rat  // exact objective of the snapped incumbent
	var bound *big.Rat // best exactly-proved lower bound on the optimum
	if len(c.X) > 0 {
		xObj = c.checkIncumbent(p)
	}
	if len(c.Basis) > 0 {
		if lpObj := c.checkBasis(p); lpObj != nil {
			bound = c.roundBound(lpObj)
			// A fully verified basis (primal + dual feasibility +
			// slackness) pins the exact optimal point of the LP itself.
			// With no integrality constraints that point IS the
			// incumbent, so a pure-LP certificate may omit X — whose
			// float images of high-denominator vertex coordinates could
			// not be recovered exactly anyway — and let the basis
			// serve as the optimality witness.
			if xObj == nil && len(c.X) == 0 && len(c.IntVars) == 0 && c.Kind == KindOptimal {
				if c.reconcileObjective(lpObj) {
					xObj = lpObj
					c.ExactObjective = lpObj.RatString()
				}
			}
		}
	}
	if len(c.DualY) > 0 {
		if safe := c.checkDualBound(p); safe != nil {
			safe = c.roundBound(safe)
			if bound == nil || safe.Cmp(bound) > 0 {
				bound = safe
			}
		}
	}
	if bound != nil {
		c.ExactBound = bound.RatString()
		if xObj != nil {
			c.add("bound-vs-incumbent", bound.Cmp(xObj) <= 0,
				fmt.Sprintf("proved bound %s vs incumbent objective %s", bound.RatString(), xObj.RatString()))
		}
	}
	if c.Bound != "" && xObj != nil {
		// the claimed tree bound may exceed the exactly-proved root
		// bound (that gap is the trusted part), but it can never exceed
		// the incumbent objective — a solver claiming that has pruned
		// the true optimum away
		if claimed, err := parseNum(c.Bound); err == nil && claimed.finite() {
			c.add("claimed-bound-vs-incumbent", claimed.r.Cmp(xObj) <= 0,
				fmt.Sprintf("claimed bound %s vs incumbent objective %s", claimed.r.RatString(), xObj.RatString()))
		}
	}
	if len(c.FarkasY) > 0 {
		c.checkFarkas(p)
	}
	c.checkWitness(xObj, bound)

	c.Valid = len(c.Checks) > 1
	for _, ch := range c.Checks {
		if !ch.OK {
			c.Valid = false
		}
	}
}

// reconcileObjective checks the claimed Objective against an exactly
// proved basic-point objective, mirroring the incumbent-objective
// reconciliation: exact equality under ObjIntegral, relative tolerance
// otherwise (the claim is a float image of the exact value).
func (c *Certificate) reconcileObjective(obj *big.Rat) bool {
	if c.Objective == "" {
		return c.add("basis-incumbent", false, "no claimed objective to reconcile with the basic point")
	}
	claimed, err := parseNum(c.Objective)
	if err != nil || !claimed.finite() {
		return c.add("basis-incumbent", false, fmt.Sprintf("claimed objective %q is not a finite rational", c.Objective))
	}
	ok := withinRel(obj, claimed.r)
	if c.ObjIntegral {
		ok = obj.Cmp(claimed.r) == 0
	}
	return c.add("basis-incumbent", ok,
		fmt.Sprintf("basic point objective %s vs claimed %s", obj.RatString(), claimed.r.RatString()))
}

// roundBound applies the integral-objective rounding to a proved lower
// bound: with an integral objective, ceil(b) is still a valid bound.
func (c *Certificate) roundBound(b *big.Rat) *big.Rat {
	if c.ObjIntegral {
		return ceilRat(b)
	}
	return b
}

// checkWitness enforces that the certificate's kind is actually backed
// by the checks that ran — a certificate with a claim but no witness
// must not validate.
func (c *Certificate) checkWitness(xObj, bound *big.Rat) {
	switch c.Kind {
	case KindOptimal, KindFeasible:
		c.add("witness", xObj != nil, "claim of a feasible incumbent requires the exact incumbent checks")
	case KindInfeasible:
		switch {
		case len(c.FarkasY) > 0:
			c.add("witness", true, "infeasibility proved by exact Farkas replay")
		case c.Search == "exhausted" && bound != nil:
			c.add("witness", true, "search exhaustion trusted; root bound certified exactly")
		default:
			c.add("witness", false, "infeasibility claim carries neither a Farkas ray nor a certified exhausted search")
		}
	default:
		c.add("witness", false, fmt.Sprintf("unknown certificate kind %q", c.Kind))
	}
}

// checkIncumbent snaps the claimed incumbent to integrality and
// verifies it exactly: integrality of the declared integer variables,
// variable bounds, every row range, and the objective against the
// claim. Returns the exact objective on success, nil otherwise.
func (c *Certificate) checkIncumbent(p *parsed) *big.Rat {
	if len(c.X) != p.n {
		c.add("incumbent-shape", false, fmt.Sprintf("incumbent has %d entries, problem %d variables", len(c.X), p.n))
		return nil
	}
	xf := make([]float64, p.n)
	for j, s := range c.X {
		v, err := parseNum(s)
		if err != nil || !v.finite() {
			c.add("incumbent-shape", false, fmt.Sprintf("incumbent entry %d: %q", j, s))
			return nil
		}
		f, _ := v.r.Float64()
		xf[j] = f
	}
	// Snap: declared integer variables MUST be within IntTol of an
	// integer; every other near-integral component snaps too (the model
	// families certified here have fully integral feasible points, so
	// residual fractions on auxiliary variables are float drift, and
	// the exact checks below prove the snapped point — not the drifted
	// one — feasible).
	x := make([]*big.Rat, p.n)
	intOK := true
	worst := -1
	for j := range xf {
		var snapped bool
		x[j], snapped = snapRat(xf[j], IntTol)
		_ = snapped
	}
	for _, j := range c.IntVars {
		if j < 0 || j >= p.n {
			c.add("incumbent-integral", false, fmt.Sprintf("integer variable %d out of range", j))
			return nil
		}
		if !x[j].IsInt() {
			intOK, worst = false, j
		}
	}
	detail := fmt.Sprintf("%d integer variables within %g of integrality", len(c.IntVars), IntTol)
	if !intOK {
		detail = fmt.Sprintf("variable %d = %s is fractional beyond %g", worst, c.X[worst], IntTol)
	}
	if !c.add("incumbent-integral", intOK, detail) {
		return nil
	}

	ok := true
	for j := 0; j < p.n; j++ {
		if (p.lo[j].finite() && x[j].Cmp(p.lo[j].r) < 0) || (p.hi[j].finite() && x[j].Cmp(p.hi[j].r) > 0) {
			c.add("incumbent-bounds", false,
				fmt.Sprintf("variable %d = %s outside [%s, %s]", j, x[j].RatString(), p.lo[j], p.hi[j]))
			ok = false
			break
		}
	}
	if ok {
		c.add("incumbent-bounds", true, "every variable within its exact bounds")
	}

	rowsOK := true
	act := new(big.Rat)
	term := new(big.Rat)
	for i, r := range p.rows {
		act.SetInt64(0)
		for k, j := range r.idx {
			act.Add(act, term.Mul(r.val[k], x[j]))
		}
		if (r.lo.finite() && act.Cmp(r.lo.r) < 0) || (r.hi.finite() && act.Cmp(r.hi.r) > 0) {
			c.add("incumbent-rows", false,
				fmt.Sprintf("row %d activity %s outside [%s, %s]", i, act.RatString(), r.lo, r.hi))
			rowsOK = false
			break
		}
	}
	if rowsOK {
		c.add("incumbent-rows", true, fmt.Sprintf("all %d rows satisfied exactly", len(p.rows)))
	}
	if !ok || !rowsOK {
		return nil
	}

	obj := new(big.Rat)
	for j := 0; j < p.n; j++ {
		if p.obj[j].Sign() != 0 {
			obj.Add(obj, term.Mul(p.obj[j], x[j]))
		}
	}
	c.ExactObjective = obj.RatString()
	if c.Objective == "" {
		c.add("incumbent-objective", false, "no claimed objective to reconcile")
		return nil
	}
	claimed, err := parseNum(c.Objective)
	if err != nil || !claimed.finite() {
		c.add("incumbent-objective", false, fmt.Sprintf("claimed objective %q is not a finite rational", c.Objective))
		return nil
	}
	if c.ObjIntegral {
		if !c.add("incumbent-objective", obj.Cmp(claimed.r) == 0,
			fmt.Sprintf("exact objective %s vs claimed %s", obj.RatString(), claimed.r.RatString())) {
			return nil
		}
	} else if !c.add("incumbent-objective", withinRel(obj, claimed.r),
		fmt.Sprintf("exact objective %s vs claimed %s", obj.RatString(), claimed.r.RatString())) {
		return nil
	}
	return obj
}

// withinRel reports |a-b| <= relTol * (1 + |a|).
func withinRel(a, b *big.Rat) bool {
	diff := new(big.Rat).Sub(a, b)
	diff.Abs(diff)
	lim := new(big.Rat).Abs(a)
	lim.Add(lim, big.NewRat(1, 1))
	lim.Mul(lim, relTol)
	return diff.Cmp(lim) <= 0
}

// checkDualBound computes the safe Lagrangian dual bound from the
// embedded row multipliers. The bound
//
//	c·x >= sum_i min(y_i*Lo_i, y_i*Hi_i) + sum_j min(d_j*l_j, d_j*u_j)
//
// with d = c - A^T y holds for EVERY multiplier vector y, so float
// drift in y can only weaken the bound, never invalidate it. A
// multiplier whose row-range term is unbounded below is dropped
// (setting y_i = 0 is also a valid choice of y). Returns the exact
// bound, or nil when no finite bound results.
func (c *Certificate) checkDualBound(p *parsed) *big.Rat {
	y, err := parseVec(c.DualY)
	if err != nil || len(y) != len(p.rows) {
		c.add("dual-bound", false, fmt.Sprintf("bad dual vector: %d entries for %d rows", len(c.DualY), len(p.rows)))
		return nil
	}
	bound := new(big.Rat)
	d := make([]*big.Rat, p.n)
	for j := range d {
		d[j] = new(big.Rat).Set(p.obj[j])
	}
	term := new(big.Rat)
	for i, r := range p.rows {
		if y[i].Sign() == 0 {
			continue
		}
		rowTerm, ok := intervalMin(y[i], r.lo, r.hi)
		if !ok {
			continue // drop this multiplier: y_i = 0 is also valid
		}
		bound.Add(bound, rowTerm)
		for k, j := range r.idx {
			d[j].Sub(d[j], term.Mul(y[i], r.val[k]))
		}
	}
	for j := 0; j < p.n; j++ {
		if d[j].Sign() == 0 {
			continue
		}
		varTerm, ok := intervalMin(d[j], p.lo[j], p.hi[j])
		if !ok {
			c.add("dual-bound", false,
				fmt.Sprintf("variable %d has reduced cost %s over an unbounded range: no finite bound", j, d[j].RatString()))
			return nil
		}
		bound.Add(bound, varTerm)
	}
	c.add("dual-bound", true, fmt.Sprintf("exact safe dual bound %s", bound.RatString()))
	return bound
}

// intervalMin returns min over v in [lo, hi] of coef*v, and whether
// that minimum is finite.
func intervalMin(coef *big.Rat, lo, hi num) (*big.Rat, bool) {
	switch coef.Sign() {
	case 0:
		return new(big.Rat), true
	case 1:
		if !lo.finite() {
			return nil, false
		}
		return new(big.Rat).Mul(coef, lo.r), true
	default:
		if !hi.finite() {
			return nil, false
		}
		return new(big.Rat).Mul(coef, hi.r), true
	}
}

// intervalMax is the mirror of intervalMin.
func intervalMax(coef *big.Rat, lo, hi num) (*big.Rat, bool) {
	switch coef.Sign() {
	case 0:
		return new(big.Rat), true
	case 1:
		if !hi.finite() {
			return nil, false
		}
		return new(big.Rat).Mul(coef, hi.r), true
	default:
		if !lo.finite() {
			return nil, false
		}
		return new(big.Rat).Mul(coef, lo.r), true
	}
}

// checkFarkas replays an infeasibility certificate exactly: with
// w = y^T A, every point of the bound box has sum_j w_j x_j inside the
// interval [W1, W2] spanned by the box, while feasibility of the rows
// requires it inside [R1, R2] = sum_i y_i*[Lo_i, Hi_i]. Disjoint
// intervals — compared exactly, no tolerance — prove the instance
// infeasible. A drifted y merely fails to separate; it cannot prove a
// feasible instance infeasible.
func (c *Certificate) checkFarkas(p *parsed) bool {
	y, err := parseVec(c.FarkasY)
	if err != nil || len(y) != len(p.rows) {
		return c.add("farkas-replay", false,
			fmt.Sprintf("bad Farkas vector: %d entries for %d rows", len(c.FarkasY), len(p.rows)))
	}
	w := make([]*big.Rat, p.n)
	for j := range w {
		w[j] = new(big.Rat)
	}
	term := new(big.Rat)
	// R = sum_i y_i * [Lo_i, Hi_i], accumulated with infinity flags
	var r1, r2 extSum
	for i, r := range p.rows {
		if y[i].Sign() == 0 {
			continue
		}
		for k, j := range r.idx {
			w[j].Add(w[j], term.Mul(y[i], r.val[k]))
		}
		r1.addMin(y[i], r.lo, r.hi)
		r2.addMax(y[i], r.lo, r.hi)
	}
	// W = sum_j w_j * [l_j, u_j]
	var w1, w2 extSum
	for j := 0; j < p.n; j++ {
		if w[j].Sign() == 0 {
			continue
		}
		w1.addMin(w[j], p.lo[j], p.hi[j])
		w2.addMax(w[j], p.lo[j], p.hi[j])
	}
	// disjoint iff W2 < R1 or R2 < W1 (exactly)
	sep := w2.less(&r1) || r2.less(&w1)
	return c.add("farkas-replay", sep,
		fmt.Sprintf("row-range interval [%s, %s] vs box interval [%s, %s]", &r1, &r2, &w1, &w2))
}

// extSum accumulates a sum of interval endpoints that may be infinite.
type extSum struct {
	v   big.Rat
	inf int // -1 once any -inf term lands, +1 for +inf
}

func (e *extSum) addMin(coef *big.Rat, lo, hi num) {
	t, ok := intervalMin(coef, lo, hi)
	if !ok {
		e.inf = -1
		return
	}
	if e.inf == 0 {
		e.v.Add(&e.v, t)
	}
}

func (e *extSum) addMax(coef *big.Rat, lo, hi num) {
	t, ok := intervalMax(coef, lo, hi)
	if !ok {
		e.inf = 1
		return
	}
	if e.inf == 0 {
		e.v.Add(&e.v, t)
	}
}

// less reports e < o with infinity handling (an infinite endpoint can
// never separate).
func (e *extSum) less(o *extSum) bool {
	if e.inf != 0 || o.inf != 0 {
		return false
	}
	return e.v.Cmp(&o.v) < 0
}

func (e *extSum) String() string {
	switch e.inf {
	case 1:
		return "inf"
	case -1:
		return "-inf"
	}
	return e.v.RatString()
}
