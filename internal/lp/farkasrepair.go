package lp

import (
	"fmt"
	"math"
)

// FarkasRepair re-derives a Farkas ray for an LP the solver judged
// infeasible, independently of the terminal tableau. It solves the
// elastic feasibility relaxation of p:
//
//	min  sum_i (t_i + u_i)
//	s.t. lo_i <= a_i x + t_i - u_i <= hi_i   for every row i
//	     t, u >= 0,  x in its original box, zero original objective
//
// The relaxation is always feasible and bounded below by zero, so it
// solves to optimality; its optimum is the minimum total constraint
// violation of p. A strictly positive optimum proves p infeasible, and
// by LP duality the relaxation's optimal row duals are multipliers
// y with |y_i| <= 1 whose combined row w = y^T [A | I] excludes zero
// over the bound box — exactly the ray shape the exact replay verifies.
//
// This exists for certification: an infeasibility concluded from a
// drifted tableau can carry a ray that is pure roundoff (the exact
// replay rejects it), while the relaxation's duals come from an
// ordinary optimal basis. The returned violation is the relaxation's
// optimum; callers should treat a near-zero violation as "p is not
// provably infeasible" rather than scale the ray.
func FarkasRepair(p *Problem) (ray []float64, violation float64, err error) {
	aux := &Problem{}
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.Bounds(j)
		aux.AddVar(p.VarKey(j), 0, lo, hi)
	}
	for i := 0; i < p.NumRows(); i++ {
		idx, val := p.Row(i)
		lo, hi := p.RowRange(i)
		eidx := append([]int(nil), idx...)
		eval := append([]float64(nil), val...)
		if !math.IsInf(lo, -1) {
			t := aux.AddVar(elasticUp.Key(i), 1, 0, Inf)
			eidx = append(eidx, t)
			eval = append(eval, 1)
		}
		if !math.IsInf(hi, 1) {
			u := aux.AddVar(elasticDown.Key(i), 1, 0, Inf)
			eidx = append(eidx, u)
			eval = append(eval, -1)
		}
		if err := aux.AddRow(p.RowKey(i), eidx, eval, lo, hi); err != nil {
			return nil, 0, fmt.Errorf("lp: FarkasRepair: %w", err)
		}
	}
	s, err := NewSolver(aux)
	if err != nil {
		return nil, 0, fmt.Errorf("lp: FarkasRepair: %w", err)
	}
	if st := s.Solve(); st != StatusOptimal {
		return nil, 0, fmt.Errorf("lp: FarkasRepair: relaxation ended %v, want optimal", st)
	}
	return sanitizeRay(p, s.Duals()), s.Objective(), nil
}

// The elastic columns of FarkasRepair's relaxation: t_i raises row i's
// activity, u_i lowers it.
var (
	elasticUp   = NewFamily("t%d")
	elasticDown = NewFamily("u%d")
)

// sanitizeRay cleans float duals into a usable Farkas candidate. The
// separation argument needs every multiplier on a one-sided row to
// respect the row's direction — a roundoff-sized wrong-signed entry
// multiplies the row's infinite side and widens the replayed interval
// to +-inf, hiding a perfectly good proof. Both orientations of the
// sign pattern are tried; whichever float-separates (with the larger
// margin) wins, and the raw duals are returned untouched when neither
// does, leaving the verdict honestly unprovable downstream.
func sanitizeRay(p *Problem, y []float64) []float64 {
	maxmag := 0.0
	for _, v := range y {
		if m := math.Abs(v); m > maxmag {
			maxmag = m
		}
	}
	drop := 1e-12 * maxmag
	best, bestMargin := y, 0.0
	for _, dir := range []float64{1, -1} {
		cand := make([]float64, len(y))
		for i, v := range y {
			if math.Abs(v) <= drop {
				continue
			}
			lo, hi := p.RowRange(i)
			if math.IsInf(hi, 1) && dir*v < 0 {
				continue // >=-row: only dir-positive multipliers separate
			}
			if math.IsInf(lo, -1) && dir*v > 0 {
				continue // <=-row: only dir-negative multipliers separate
			}
			cand[i] = v
		}
		if m := separationMargin(p, cand); m > bestMargin {
			best, bestMargin = cand, m
		}
	}
	return best
}

// separationMargin float-evaluates the Farkas separation y witnesses:
// the gap between the row-range interval sum_i y_i*[lo_i,hi_i] and the
// box interval of w = y^T A over the variable bounds. Positive means
// the intervals are disjoint in float arithmetic; the exact replay
// remains the judge of record.
func separationMargin(p *Problem, y []float64) float64 {
	w := make([]float64, p.NumVars())
	r1, r2 := 0.0, 0.0
	for i, yi := range y {
		if yi == 0 {
			continue
		}
		idx, val := p.Row(i)
		for k, j := range idx {
			w[j] += yi * val[k]
		}
		lo, hi := p.RowRange(i)
		a, b := yi*lo, yi*hi
		if a > b {
			a, b = b, a
		}
		r1 += a
		r2 += b
	}
	w1, w2 := 0.0, 0.0
	for j, wj := range w {
		if wj == 0 {
			continue
		}
		lo, hi := p.Bounds(j)
		a, b := wj*lo, wj*hi
		if a > b {
			a, b = b, a
		}
		w1 += a
		w2 += b
	}
	return math.Max(r1-w2, w1-r2)
}
