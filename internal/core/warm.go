package core

import (
	"repro/internal/lp"
	"repro/internal/partition"
)

// Warm carries re-solve artifacts injected into a Model before
// SolveContext — the bridge the internal/delta subsystem uses to turn a
// cached previous solve into a cheap amended one. Every field is
// optional; a nil Warm (the default) is a cold solve.
type Warm struct {
	// Solver, when set, becomes the MILP root solver (see
	// milp.Options.Warm). It must represent the model's post-presolve
	// problem: same columns and rows, with any bound, row-range or
	// objective edits already applied. The search mutates it.
	Solver *lp.Solver
	// Prime, when non-nil, primes the incumbent: a solution of THIS
	// instance that the caller has already verified (partition.Verify).
	// Subtrees that cannot strictly beat it are pruned, and when
	// nothing does, Prime is reported optimal.
	Prime *partition.Solution
	// OnRoot, when set, is forwarded to milp.Options.OnRoot: it
	// receives the root LP solver right after the root relaxation
	// solves to optimality, before the search mutates it.
	OnRoot func(*lp.Solver)
}

// SetWarm installs re-solve artifacts for the next SolveContext call.
// Passing nil restores a cold solve.
func (m *Model) SetWarm(w *Warm) { m.warm = w }

// ApplyPresolve runs the configured presolve passes (LP presolve plus
// binary-domain tightening) on the model's problem exactly once,
// reporting whether they proved the instance infeasible. SolveContext
// calls it implicitly; the delta layer calls it explicitly first, so
// the problem it diffs against a cached build is the same
// post-presolve problem the solver will see. Idempotent: later calls
// return the recorded verdict without touching the problem again.
func (m *Model) ApplyPresolve() bool {
	if m.presolved {
		return m.presolveInfeasible
	}
	m.presolved = true
	if m.Opt.Presolve {
		p := m.LP()
		if res := p.Presolve(); res.Infeasible {
			m.presolveInfeasible = true
		} else if err := p.TightenBinary(m.intVars); err != nil {
			// a binary domain emptied: no integer solution exists
			m.presolveInfeasible = true
		}
	}
	return m.presolveInfeasible
}
