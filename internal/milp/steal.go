package milp

import (
	"context"
	"math"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// donateDepth bounds how deep in the tree a worker still donates its
// second child to the pool: a donated subproblem is replayed from the
// root basis by its taker (one SetBound per fix plus a dual-simplex
// re-optimization), so handing off very deep nodes costs more than
// exploring them in place.
const donateDepth = 24

// stealPool is the work-stealing scheduler of a parallel solve: one
// deque of unexplored subproblems per worker, a condition variable for
// idle workers, and an open-work counter for termination. A worker
// pops its own deque LIFO (depth-first locality: the replayed prefix
// shares most of its fixes with the subtree just explored) and steals
// FIFO from the victim whose oldest — shallowest, hence largest —
// subproblem has the best (lowest) bound, which is the best-bound
// victim-selection rule.
//
// All queue state is guarded by one mutex: donations and pickups are
// rare next to node LP solves, so contention is negligible, and the
// single lock makes the termination protocol (open == 0 with all
// queues empty means the tree is exhausted) trivially correct. The
// hot-path question "does anyone need work?" is answered lock-free
// from two mirrors (hungryA, openA) so branch() never takes the lock
// just to decide not to donate.
type stealPool struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   [][]subproblem // per-worker deques
	curBound []float64      // bound of each worker's in-flight subproblem (+Inf when idle)
	open     int            // queued + in-flight subproblems
	waiting  int            // workers blocked in next()
	stopped  bool

	workers int
	hungryA atomic.Bool  // mirror: waiting > 0
	openA   atomic.Int64 // mirror: open
	// steals/picks are atomics (though only written under mu) so the
	// live-introspection snapshot reads them without taking the lock.
	steals atomic.Int64
	picks  atomic.Int64
}

func newStealPool(workers int) *stealPool {
	pl := &stealPool{
		queues:   make([][]subproblem, workers),
		curBound: make([]float64, workers),
		workers:  workers,
	}
	pl.cond = sync.NewCond(&pl.mu)
	for i := range pl.curBound {
		pl.curBound[i] = math.Inf(1)
	}
	return pl
}

// hungry reports, lock-free, whether donating a subproblem would help:
// a worker is idle-waiting, or there is less open work than workers.
func (pl *stealPool) hungry() bool {
	return pl.hungryA.Load() || pl.openA.Load() < int64(pl.workers)
}

// seed enqueues the root subproblem before the workers start.
func (pl *stealPool) seed(sp subproblem) {
	pl.queues[0] = append(pl.queues[0], sp)
	pl.open = 1
	pl.openA.Store(1)
}

// donate pushes a subproblem onto worker w's own deque and wakes one
// idle worker.
func (pl *stealPool) donate(w int, sp subproblem) {
	pl.mu.Lock()
	pl.queues[w] = append(pl.queues[w], sp)
	pl.open++
	pl.openA.Store(int64(pl.open))
	pl.mu.Unlock()
	pl.cond.Signal()
}

// next blocks until worker w has a subproblem to run. It returns the
// subproblem, the victim slot it was stolen from (-1 for the worker's
// own deque) and ok=false when the search is over — the pool was
// aborted, or no open work remains anywhere.
func (pl *stealPool) next(w int) (sp subproblem, victim int, ok bool) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for {
		if pl.stopped {
			return subproblem{}, -1, false
		}
		if q := pl.queues[w]; len(q) > 0 { // own deque, LIFO
			sp = q[len(q)-1]
			q[len(q)-1] = subproblem{}
			pl.queues[w] = q[:len(q)-1]
			pl.curBound[w] = sp.bound
			pl.picks.Add(1)
			return sp, -1, true
		}
		best, bestB := -1, math.Inf(1)
		for v := range pl.queues {
			if v == w || len(pl.queues[v]) == 0 {
				continue
			}
			if b := pl.queues[v][0].bound; best < 0 || b < bestB {
				best, bestB = v, b
			}
		}
		if best >= 0 { // steal FIFO from the best-bound victim
			sp = pl.queues[best][0]
			pl.queues[best][0] = subproblem{}
			pl.queues[best] = pl.queues[best][1:]
			pl.curBound[w] = sp.bound
			pl.steals.Add(1)
			pl.picks.Add(1)
			return sp, best, true
		}
		if pl.open == 0 {
			return subproblem{}, -1, false
		}
		pl.waiting++
		pl.hungryA.Store(true)
		pl.cond.Wait()
		pl.waiting--
		if pl.waiting == 0 {
			pl.hungryA.Store(false)
		}
	}
}

// done retires worker w's in-flight subproblem and returns the proved
// lower bound over all still-open work (+Inf when the tree is
// exhausted). The last retirement wakes every waiter so they can
// observe termination.
func (pl *stealPool) done(w int) (openMin float64) {
	pl.mu.Lock()
	pl.curBound[w] = math.Inf(1)
	pl.open--
	pl.openA.Store(int64(pl.open))
	openMin = pl.openBoundLocked()
	finished := pl.open == 0
	pl.mu.Unlock()
	if finished {
		pl.cond.Broadcast()
	}
	return openMin
}

// abort stops the pool: next() returns false everywhere. In-flight
// subproblems keep their curBound entry, so openBound still covers the
// subtrees the stop interrupted.
func (pl *stealPool) abort() {
	pl.mu.Lock()
	pl.stopped = true
	pl.mu.Unlock()
	pl.cond.Broadcast()
}

// openBound returns the minimum bound over queued and in-flight
// subproblems: a valid lower bound on everything the search has not
// finished (children bounds only tighten, so each open subtree is
// covered by its recorded root bound).
func (pl *stealPool) openBound() float64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.openBoundLocked()
}

func (pl *stealPool) openBoundLocked() float64 {
	open := math.Inf(1)
	for _, q := range pl.queues {
		for i := range q {
			if q[i].bound < open {
				open = q[i].bound
			}
		}
	}
	for _, b := range pl.curBound {
		if b < open {
			open = b
		}
	}
	return open
}

func (pl *stealPool) stealCount() int64 { return pl.steals.Load() }

// solveSteal runs the work-stealing parallel search: the root
// subproblem is seeded into the pool, Options.Parallelism workers —
// each owning a clone of the root-optimal LP solver — pick up
// subproblems, and every explored node with two live children donates
// its second child whenever some worker is hungry (branch() calls
// pool.hungry()), so the tree splits itself adaptively instead of
// along a fixed depth. Called with the root LP solved to optimality;
// res.BestBound holds the root bound and is tightened here when the
// search is stopped early.
func (s *solver) solveSteal(res *Result, rootMeta nodeMeta) {
	workers := s.opt.Parallelism
	pl := newStealPool(workers)
	pl.seed(subproblem{bound: s.bound(s.lps.Objective())})
	s.sh.pool.Store(pl) // publish for live snapshots
	ws := make([]*solver, workers)
	for w := range ws {
		ws[w] = &solver{
			lps:      s.lps.Clone(), // clone carries Prof: workers share the profile
			prob:     s.prob,
			opt:      s.opt,
			ctx:      s.ctx,
			isInt:    s.isInt,
			sh:       s.sh,
			brancher: s.brancher,
			worker:   w + 1,
			wslot:    w,
			pool:     pl,
			span:     s.span,
		}
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *solver) {
			defer wg.Done()
			wsp := w.span.Child("worker") // nil-safe: nil when spans are off
			wsp.SetWorker(w.worker)
			defer wsp.End()
			// label the goroutine so CPU profiles slice by worker
			pprof.Do(s.ctx, pprof.Labels("tp_worker", strconv.Itoa(w.worker)), func(context.Context) {
				w.guard(func() { w.stealLoop(rootMeta) })
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
	res.Steals = pl.stealCount()
	if r := s.sh.stopRequested(); r != reasonNone {
		s.reason = r
		// best-bound aggregation over the work the stop left open; the
		// incumbent clamp happens in the caller's finalization.
		if open := pl.openBound(); !math.IsInf(open, 1) && open > res.BestBound {
			res.BestBound = open
		}
	}
}

// stealLoop is a work-stealing worker's main loop: claim a subproblem
// (own deque or steal), re-anchor the cloned LP at the root basis,
// replay the branching prefix and explore the subtree — donating
// second children back to the pool along the way.
func (w *solver) stealLoop(rootMeta nodeMeta) {
	// re-anchor at the root-optimal basis before every subproblem:
	// cheaper than a fresh Clone and it discards any numerical drift
	// from the previous subtree
	snap := w.lps.Snapshot()
	o := &w.sh.obs
	defer w.sh.setPhase(w.worker, wpDone)
	for {
		if w.sh.stopRequested() != reasonNone {
			return
		}
		w.sh.setPhase(w.worker, wpWait)
		sp, victim, ok := w.pool.next(w.wslot)
		if !ok {
			return
		}
		w.sh.setPhase(w.worker, wpSearch)
		if victim >= 0 && o.tr != nil {
			o.tr.Emit(trace.Event{Kind: trace.KindSteal, Worker: w.worker,
				Nodes: w.sh.nodes.Load(), Bound: sp.bound,
				Msg: "steal from w" + strconv.Itoa(victim+1)})
		}
		if sp.bound >= w.sh.incumbent()-1e-9 {
			// dominated since it was donated: retire without LP work
			w.finishSub()
			continue
		}
		o.tr.Emit(trace.Event{Kind: trace.KindWorker, Worker: w.worker,
			Nodes: w.sh.nodes.Load(), Msg: "pickup"})
		w.lps.Restore(snap)
		for _, f := range sp.fixes {
			w.lps.SetBound(f.col, f.val, f.val)
		}
		w.path = append(w.path[:0], sp.fixes...)
		m := nodeMeta{parent: sp.parent, col: -1}
		if n := len(sp.fixes); n > 0 {
			m.col = int32(sp.fixes[n-1].col)
			if sp.fixes[n-1].val >= 0.5 {
				m.dir = 1
			}
		} else {
			m = rootMeta // the root subproblem: keep the root-LP lineage
		}
		t0, piv0 := o.clock(), w.lps.Iterations
		cst := w.lps.ReOptimize()
		m.ns, m.pivots = o.lap(trace.PhaseNodeLP, t0), int64(w.lps.Iterations-piv0)
		w.branch(cst, len(sp.fixes), m)
		if w.reason != reasonNone {
			w.sh.requestStop(w.reason)
			w.pool.abort()
			return
		}
		w.finishSub()
	}
}

// finishSub retires the worker's in-flight subproblem and ratchets the
// streamed best bound: the proved bound is the min over still-open
// work, clamped to the incumbent (the monotone ratchet keeps the
// streamed sequence non-decreasing).
func (w *solver) finishSub() {
	open := w.pool.done(w.wslot)
	if w.sh.obs.tr == nil {
		return
	}
	if inc := w.sh.incumbent(); open > inc {
		open = inc
	}
	if w.sh.raiseBound(open) {
		w.sh.obs.progress(trace.KindBound, w.worker)
	}
}
