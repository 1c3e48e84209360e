package service

// Live search introspection and the per-job black box: the service half
// of the observability stack. The solver mirrors its search state into
// atomic snapshots (milp.SearchStatus) and records every node into a
// bounded keep-last ring (trace.BlackBox); this file attaches both to
// each fresh solve, runs the gap-stall watchdog over the mirror, and
// serves the results — GET /v1/debug/solves, /v1/jobs/{id}/spans and
// /v1/jobs/{id}/blackbox in http.go.

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/milp"
	"repro/internal/trace"
)

// beginSolve attaches the job's observability hooks — the solve span,
// the black-box ring, the live search mirror, the fault-injection test
// hook and the stall watchdog — to the options of a fresh solve. The
// returned func ends the solve span with the outcome and stops the
// watchdog; call it as soon as the solve returns.
func (s *Service) beginSolve(j *job, op *core.Options) func(res *core.Result, dinfo delta.Info, err error) {
	sp := j.rootSpan.Child("solve")
	op.Span = sp
	op.BlackBox = j.bb
	op.Status = j.live
	if s.cfg.InjectFault != nil {
		s.cfg.InjectFault(op)
	}
	stopWatch := s.watchStall(j, op.Trace)
	return func(res *core.Result, dinfo delta.Info, err error) {
		stopWatch()
		if dinfo.Path != "" {
			sp.SetStr("delta_path", dinfo.Path)
		}
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		if res != nil {
			sp.SetNum("nodes", float64(res.Nodes))
			sp.SetNum("pivots", float64(res.LPIterations))
		}
		sp.End()
	}
}

// watchStall runs the gap-stall watchdog over one fresh solve: when the
// search's best bound and incumbent both fail to move for a full
// StallWindow, it emits one stall trace event, records and flushes the
// black box, and marks the job stalled. One-shot — a solve that stalls,
// recovers and stalls again is reported once. The returned func stops
// the watchdog; a no-op when the watchdog is disabled.
func (s *Service) watchStall(j *job, tr *trace.Tracer) func() {
	window := s.cfg.StallWindow
	if window <= 0 {
		return func() {}
	}
	poll := window / 4
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(poll)
		defer tick.Stop()
		var lastBound, lastInc float64
		var have bool
		lastMove := time.Now()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			snap, ok := j.live.Snapshot()
			if !ok || !snap.Running || snap.Nodes == 0 {
				// the search is not exploring yet (build, presolve, root
				// LP, cuts, dive) or already finished: not a stall
				lastMove = time.Now()
				have = false
				continue
			}
			bound, inc := snap.Bound, snap.Incumbent
			if !have || bound != lastBound || inc != lastInc {
				have = true
				lastBound, lastInc = bound, inc
				lastMove = time.Now()
				continue
			}
			if time.Since(lastMove) < window {
				continue
			}
			j.stalled.Store(true)
			e := trace.Event{
				Kind:  trace.KindStall,
				Nodes: snap.Nodes,
				Gap:   snap.Gap,
				Msg:   "bound and incumbent unmoved for " + window.String(),
			}
			if snap.HasBound {
				e.Bound = snap.Bound
			}
			if snap.HasIncumbent {
				e.HasIncumbent = true
				e.Incumbent = snap.Incumbent
			}
			tr.Emit(e)
			j.bb.Anomaly(trace.BBEvent{
				Kind:      trace.BBStall,
				Node:      snap.Nodes,
				Bound:     snap.Bound,
				Incumbent: snap.Incumbent,
				Msg:       "watchdog: bound and incumbent unmoved for " + window.String(),
			}, "stall")
			return
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// SolveDebug is one in-flight solve as reported by GET /v1/debug/solves:
// the job identity plus a point-in-time snapshot of its running search.
// Search is nil while the job is in a pre-search stage (build, presolve,
// root LP) or when it joined another job's flight (the shared search is
// mirrored on the flight leader's entry).
type SolveDebug struct {
	ID        string    `json:"id"`
	Graph     string    `json:"graph"`
	Status    JobStatus `json:"status"`
	RunningMS float64   `json:"running_ms"`
	// TraceID names the job's span tree (and the caller's distributed
	// trace, when the submission carried a traceparent header).
	TraceID string `json:"trace_id,omitempty"`
	// Stalled reports that the gap-stall watchdog fired for this job.
	Stalled bool `json:"stalled,omitempty"`
	// Search is the live search snapshot: nodes, incumbent, bound, gap,
	// open subproblems, steals and per-worker phases.
	Search *milp.SearchSnapshot `json:"search,omitempty"`
}

// DebugSolves snapshots every currently running job for the live
// introspection endpoint. Cheap enough to poll: the search figures come
// from atomic mirrors maintained by the solver, not from locks shared
// with the search loops.
func (s *Service) DebugSolves() []SolveDebug {
	now := time.Now()
	s.mu.Lock()
	var out []SolveDebug
	for _, j := range s.jobs {
		if j.status != StatusRunning {
			continue
		}
		d := SolveDebug{
			ID:      j.id,
			Graph:   j.req.inst.Graph.Name,
			Status:  j.status,
			TraceID: j.spans.TraceID(),
			Stalled: j.stalled.Load(),
		}
		if !j.started.IsZero() {
			d.RunningMS = durMS(now.Sub(j.started))
		}
		if snap, ok := j.live.Snapshot(); ok {
			d.Search = &snap
		}
		out = append(out, d)
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Spans returns the finished spans of a job's trace, oldest first. The
// tree is live: polling while the job runs shows spans as they end, and
// the request root appears once the job reaches a terminal state.
func (s *Service) Spans(id string) ([]trace.SpanRec, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.spans.Snapshot(), nil
}

// BlackBox returns the black-box dump of a job: the frozen anomaly
// capture when the box flushed (worker panic, deadline, certification
// failure, watchdog stall), otherwise the rolling live tail.
func (s *Service) BlackBox(id string) (trace.BBDump, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return trace.BBDump{}, ErrUnknownJob
	}
	return j.bb.Dump(), nil
}

// TraceContext returns the W3C traceparent value identifying a job's
// root span, echoed on submission responses so callers can stitch the
// job into their own distributed trace.
func (s *Service) TraceContext(id string) (string, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return "", ErrUnknownJob
	}
	return j.spans.Traceparent(j.rootSpan), nil
}
