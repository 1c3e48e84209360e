// Package sched provides the scheduling substrate of the temporal
// partitioning system: ASAP/ALAP mobility windows over the combined
// operation graph (the preprocessing step of Kaul & Vemuri, Section 3),
// a resource-constrained list scheduler, the segment estimate N of the
// paper's flow (EstimateSegments), and the walk over task-to-segment
// assignments (WalkAssignments) that both the list-scheduling baseline
// (Baseline) and core's exact sweep run.
package sched

import (
	"fmt"

	"repro/internal/graph"
)

// Duration maps an operation ID to its length in control steps. The
// base paper model is unit latency; the multicycle extension derives
// durations from the component library.
type Duration func(opID int) int

// UnitDuration is the base-model duration: every operation takes one
// control step.
func UnitDuration(int) int { return 1 }

// Windows holds the ASAP/ALAP mobility analysis of an operation graph.
// Control steps are numbered from 1 as in the paper.
type Windows struct {
	// ASAP[i] is the earliest start step of operation i.
	ASAP []int
	// ALAP[i] is the latest start step of operation i in a schedule of
	// length CriticalPath (before latency relaxation).
	ALAP []int
	// Dur[i] is the duration used for operation i.
	Dur []int
	// CriticalPath is the length of the longest dependency chain in
	// control steps; the minimum feasible schedule length.
	CriticalPath int
}

// ComputeWindows runs ASAP and ALAP longest-path analyses over the
// combined operation graph of g (intra- and inter-task edges). dur may
// be nil for unit latency. It returns an error if the operation graph
// is cyclic or a duration is non-positive.
func ComputeWindows(g *graph.Graph, dur Duration) (*Windows, error) {
	if dur == nil {
		dur = UnitDuration
	}
	n := g.NumOps()
	order, err := g.TopoOps()
	if err != nil {
		return nil, err
	}
	w := &Windows{
		ASAP: make([]int, n),
		ALAP: make([]int, n),
		Dur:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		w.Dur[i] = dur(i)
		if w.Dur[i] <= 0 {
			return nil, fmt.Errorf("sched: non-positive duration %d for op %d", w.Dur[i], i)
		}
	}
	for _, i := range order {
		w.ASAP[i] = 1
		for _, p := range g.OpPred(i) {
			if s := w.ASAP[p] + w.Dur[p]; s > w.ASAP[i] {
				w.ASAP[i] = s
			}
		}
		if end := w.ASAP[i] + w.Dur[i] - 1; end > w.CriticalPath {
			w.CriticalPath = end
		}
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		w.ALAP[i] = w.CriticalPath - w.Dur[i] + 1
		for _, s := range g.OpSucc(i) {
			if l := w.ALAP[s] - w.Dur[i]; l < w.ALAP[i] {
				w.ALAP[i] = l
			}
		}
		if w.ALAP[i] < w.ASAP[i] {
			return nil, fmt.Errorf("sched: inconsistent window for op %d: ASAP %d > ALAP %d", i, w.ASAP[i], w.ALAP[i])
		}
	}
	return w, nil
}

// Steps returns CS(i): the candidate start steps of operation i with
// latency relaxation L, i.e. ASAP(i) .. ALAP(i)+L.
func (w *Windows) Steps(i, L int) []int {
	lo, hi := w.ASAP[i], w.ALAP[i]+L
	out := make([]int, 0, hi-lo+1)
	for j := lo; j <= hi; j++ {
		out = append(out, j)
	}
	return out
}

// MaxStep returns the last usable control step with relaxation L.
func (w *Windows) MaxStep(L int) int { return w.CriticalPath + L }
