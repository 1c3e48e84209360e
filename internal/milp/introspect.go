package milp

import (
	"sync/atomic"
	"time"
)

// Worker phases for the live-introspection surface: the coarse state of
// each branch-and-bound worker, updated at subproblem granularity (not
// per node) so the node loop stays untouched.
const (
	wpIdle   int32 = iota // not yet started
	wpSearch              // exploring a subtree
	wpWait                // blocked waiting for work to steal
	wpDone                // finished
)

var workerPhaseNames = [...]string{"idle", "search", "wait", "done"}

// SearchStatus is a live handle onto an in-flight solve. A caller
// passes one through Options.Status; SolveContext attaches it once the
// search plan is decided and marks it finished on return, and Snapshot
// may be polled from any goroutine while the solve runs — every figure
// is read from the atomic mirrors the search already maintains (the
// global node counter, the CAS incumbent and display-bound channels,
// the steal pool's open/steal/pick counters and the per-worker phase
// slots), so polling costs the solve nothing.
//
// The zero value is ready to use; a nil *SearchStatus is the valid
// "off" state (Snapshot reports ok=false).
type SearchStatus struct {
	live atomic.Pointer[liveSearch]
}

// NewSearchStatus returns an empty handle to pass as Options.Status.
func NewSearchStatus() *SearchStatus { return &SearchStatus{} }

type liveSearch struct {
	sh      *shared
	mode    SearchMode
	workers int
	start   time.Time
	done    atomic.Bool
}

// SearchSnapshot is one poll of a live search — the JSON-stable row of
// the service's /v1/debug/solves report. Gap is the relative
// optimality gap (gapOf) when both an incumbent and a bound exist and
// -1 ("unknown") otherwise, so the field is always present for
// monitoring scrapes. WorkerPhases[0] is the serial/coordinator slot;
// slots 1..Workers are the parallel workers.
type SearchSnapshot struct {
	Running      bool     `json:"running"`
	Mode         string   `json:"mode"`
	Workers      int      `json:"workers"`
	ElapsedMS    float64  `json:"elapsed_ms"`
	Nodes        int64    `json:"nodes"`
	HasIncumbent bool     `json:"has_incumbent"`
	Incumbent    float64  `json:"incumbent,omitempty"`
	HasBound     bool     `json:"has_bound"`
	Bound        float64  `json:"bound,omitempty"`
	Gap          float64  `json:"gap"`
	Open         int64    `json:"open"`
	Steals       int64    `json:"steals"`
	Picks        int64    `json:"picks"`
	WorkerPhases []string `json:"worker_phases,omitempty"`
}

// Snapshot reads the live figures; ok is false until a solve attaches
// the handle (and on a nil receiver).
func (st *SearchStatus) Snapshot() (SearchSnapshot, bool) {
	if st == nil {
		return SearchSnapshot{}, false
	}
	ls := st.live.Load()
	if ls == nil {
		return SearchSnapshot{}, false
	}
	sh := ls.sh
	snap := SearchSnapshot{
		Running:   !ls.done.Load(),
		Mode:      ls.mode.String(),
		Workers:   ls.workers,
		ElapsedMS: float64(time.Since(ls.start)) / float64(time.Millisecond),
		Nodes:     sh.nodes.Load(),
		Gap:       -1,
	}
	inc := sh.incumbent()
	if isFinite(inc) {
		snap.HasIncumbent, snap.Incumbent = true, inc
	}
	b := sh.displayBound()
	if isFinite(b) {
		snap.HasBound, snap.Bound = true, b
		if snap.HasIncumbent {
			snap.Gap = gapOf(inc, b)
		}
	}
	if pl := sh.pool.Load(); pl != nil {
		snap.Open = pl.openA.Load()
		snap.Steals = pl.steals.Load()
		snap.Picks = pl.picks.Load()
	}
	if ph := sh.wphase; ph != nil {
		snap.WorkerPhases = make([]string, len(ph))
		for i := range ph {
			p := ph[i].Load()
			if p < 0 || int(p) >= len(workerPhaseNames) {
				p = wpIdle
			}
			snap.WorkerPhases[i] = workerPhaseNames[p]
		}
	}
	return snap, true
}

func (st *SearchStatus) attach(ls *liveSearch) {
	if st == nil {
		return
	}
	st.live.Store(ls)
}

func (st *SearchStatus) finish() {
	if st == nil {
		return
	}
	if ls := st.live.Load(); ls != nil {
		ls.done.Store(true)
	}
}
