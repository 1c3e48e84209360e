package milp

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/lp"
)

// reasonDone is the internal stop reason a portfolio worker raises
// when it finishes its whole tree: the race is decided, the losers
// should stop. It never leaks into a Result — a raised reasonDone
// implies some worker completed its proof, and solvePortfolio maps
// that back to reasonNone (the clean-finish state).
const reasonDone stopReason = reasonCtx + 1

// reasonPanic is raised when a worker goroutine panicked and was
// recovered (see shared.recordPanic): the search stops everywhere and
// SolveContext converts the solve into an error, so it never surfaces
// as a Result status either.
const reasonPanic stopReason = reasonDone + 1

// flipBrancher inverts the child order of an inner brancher (0-branch
// first where the inner rule says 1-first), preserving its Forker and
// BoundObserver behavior — the cheapest way to diversify a portfolio
// seat beyond the distinct selection rules.
type flipBrancher struct{ inner Brancher }

func (f flipBrancher) Select(x []float64, bound func(col int) (lo, hi float64)) (int, bool) {
	col, oneFirst := f.inner.Select(x, bound)
	return col, !oneFirst
}

func (f flipBrancher) Fork() Brancher { return flipBrancher{forkBrancher(f.inner)} }

func (f flipBrancher) Observe(col int, up bool, parent, child float64) {
	if o := boundObserverOf(f.inner); o != nil {
		o.Observe(col, up, parent, child)
	}
}

// portfolioSeats builds the strategy line-up: seat 0 runs the
// configured brancher (the paper's priority rule in production), later
// seats run pseudo-cost, most-fractional, the flipped configured rule
// and first-fractional, cycling with flipped variants beyond that.
// Every seat explores the FULL tree — diversity comes from traversal
// order, and the shared incumbent turns any seat's find into pruning
// for all.
func (s *solver) portfolioSeats(workers int) []Brancher {
	intCols := append([]int(nil), s.opt.IntVars...)
	configured := s.brancher
	if configured == nil {
		configured = MostFractional(intCols) // the solver's default rule
	}
	base := []Brancher{
		forkBrancher(configured),
		NewPseudoCost(intCols),
		MostFractional(intCols),
		flipBrancher{forkBrancher(configured)},
		FirstFractional(intCols),
		flipBrancher{NewPseudoCost(intCols)},
		flipBrancher{MostFractional(intCols)},
		flipBrancher{FirstFractional(intCols)},
	}
	seats := make([]Brancher, workers)
	for w := range seats {
		seats[w] = forkBrancher(base[w%len(base)])
	}
	return seats
}

// solvePortfolio races Options.Parallelism complete searches over the
// same tree, one strategy per worker, sharing the incumbent through
// the same CAS channel the work-stealing mode uses: a strong incumbent
// found by any seat immediately prunes every other seat's tree. The
// first seat to exhaust its (pruned) tree ends the race — its full
// depth-first traversal is a standalone optimality proof, so the
// result is exactly the serial verdict, just proved by whichever
// strategy got there first.
//
// The reported optimum is deterministic for a fixed instance: every
// seat prunes with strict improvement against the shared incumbent, so
// the final incumbent is the true optimum no matter which seat wins or
// how installs interleave.
func (s *solver) solvePortfolio(rootMeta nodeMeta) {
	workers := s.opt.Parallelism
	seats := s.portfolioSeats(workers)
	ws := make([]*solver, workers)
	for w := range ws {
		ws[w] = &solver{
			lps:      s.lps.Clone(),
			prob:     s.prob,
			opt:      s.opt,
			ctx:      s.ctx,
			isInt:    s.isInt,
			sh:       s.sh,
			brancher: seats[w],
			boundObs: boundObserverOf(seats[w]),
			worker:   w + 1,
			span:     s.span,
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *solver) {
			defer wg.Done()
			wsp := w.span.Child("worker")
			wsp.SetWorker(w.worker)
			defer wsp.End()
			pprof.Do(s.ctx, pprof.Labels("tp_worker", strconv.Itoa(w.worker)), func(context.Context) {
				w.sh.setPhase(w.worker, wpSearch)
				defer w.sh.setPhase(w.worker, wpDone)
				w.guard(func() {
					w.branch(lp.StatusOptimal, 0, rootMeta)
				})
				if w.reason == reasonNone {
					// race decided: this seat's traversal is a complete
					// proof; stop the losers
					w.sh.requestStop(reasonDone)
					return
				}
				if w.reason != reasonDone {
					w.sh.requestStop(w.reason)
				}
			})
			wsp.SetNum("nodes", float64(w.local))
			wsp.SetNum("pivots", float64(w.lps.Iterations))
		}(w)
	}
	wg.Wait()
	for _, w := range ws {
		s.lps.Iterations += w.lps.Iterations
		s.lps.Counters.Add(w.lps.Counters)
	}
	// A seat that finished cleanly proved the verdict regardless of what
	// stopped the others; only when every seat was interrupted by a real
	// limit does the solve report a stopped status.
	s.reason = reasonTime
	for _, w := range ws {
		if w.reason == reasonNone {
			s.reason = reasonNone
			break
		}
	}
	if s.reason != reasonNone {
		if r := s.sh.stopRequested(); r != reasonNone && r != reasonDone {
			s.reason = r
		}
	}
	// BestBound stays the root bound; finalization clamps it to the
	// incumbent (a clean finish proves optimality, a stopped race keeps
	// the root bound as the proved one).
}
