package service

// The design-space sweep API: one request scans a (N, L, Ms, C, α)
// grid over a fixed graph and allocation. A sweep is a batch: the grid
// expands into one request per point and goes through SubmitBatch,
// whose warm chains already reset at each structural (N, L) cell and
// walk the warmable axes (scratch, capacity, α) in ascending order, so
// consecutive solves share presolve work, root bases and — on monotone
// tightening steps — whole conclusions. The points run on the worker
// pool under the batch's atomic admission.

import (
	"context"
	"fmt"
	"time"

	"repro/internal/delta"
)

// SweepRequest is a base solve request plus the axes to scan. Empty
// axes inherit the base request's single value.
type SweepRequest struct {
	Request
	Sweep SweepAxes `json:"sweep"`
}

// SweepAxes are the scanned design-space dimensions. N and L are
// structural (each step rebuilds the model cold); CapacityFG,
// ScratchMem and Alpha are pure bound edits (each step re-solves warm
// from its neighbor).
type SweepAxes struct {
	N          []int     `json:"n,omitempty"`
	L          []int     `json:"l,omitempty"`
	CapacityFG []int     `json:"capacity_fg,omitempty"`
	ScratchMem []int     `json:"scratch_mem,omitempty"`
	Alpha      []float64 `json:"alpha,omitempty"`
}

// SweepPoint is one solved grid point.
type SweepPoint struct {
	N          int     `json:"n"`
	L          int     `json:"l"`
	CapacityFG int     `json:"capacity_fg,omitempty"`
	ScratchMem int     `json:"scratch_mem,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	// Class and Path report the delta engine's dispatch against the
	// previous point of the point's warm chain (cold for the first point
	// of each structural cell); Path is "cache" for a point answered by
	// the result cache or an identical in-flight solve.
	Class string `json:"class,omitempty"`
	Path  string `json:"path"`
	// Verdict summary of the point's solve.
	Feasible bool    `json:"feasible"`
	Optimal  bool    `json:"optimal"`
	Comm     int     `json:"comm,omitempty"`
	MS       float64 `json:"ms"`
}

// SweepResult is the solved grid plus the dispatch accounting. Points
// on the "cache" path count in none of Cold, Warm and Reuse.
type SweepResult struct {
	Points []SweepPoint `json:"points"`
	Cold   int          `json:"cold"`
	Warm   int          `json:"warm"`
	Reuse  int          `json:"reuse"`
	// TotalMS is the sweep's wall time.
	TotalMS float64 `json:"total_ms"`
}

// Sweep expands the request's design-space grid into one batch, with
// the points in axis order (N, L, Ms, C, α, the last innermost), and
// waits for it under ctx. A grid of more than Config.MaxBatch points
// fails with ErrBatchTooLarge; invalid points and sheds fail like
// SubmitBatch, before anything is enqueued. A cancelled ctx cancels
// every unfinished point and returns the context error.
func (s *Service) Sweep(ctx context.Context, req *SweepRequest) (*SweepResult, error) {
	axes := req.Sweep
	ns := axisOr(axes.N, req.Options.N)
	ls := axisOr(axes.L, req.Options.L)
	mems := axisOr(axes.ScratchMem, req.Device.ScratchMem)
	caps := axisOr(axes.CapacityFG, req.Device.CapacityFG)
	alphas := axisOr(axes.Alpha, req.Device.Alpha)
	// multiply axis by axis so a huge grid fails before it is expanded
	// (or overflows)
	total := 1
	for _, k := range []int{len(ns), len(ls), len(mems), len(caps), len(alphas)} {
		if total *= k; total > s.cfg.MaxBatch {
			return nil, fmt.Errorf("%w: sweep grid exceeds %d points", ErrBatchTooLarge, s.cfg.MaxBatch)
		}
	}

	reqs := make([]*Request, 0, total)
	for _, n := range ns {
		for _, l := range ls {
			for _, ms := range mems {
				for _, c := range caps {
					for _, a := range alphas {
						r := req.Request
						r.Options.N, r.Options.L = n, l
						r.Device.CapacityFG, r.Device.ScratchMem, r.Device.Alpha = c, ms, a
						// a record-mode item would run outside its chain
						r.Options.Record = false
						reqs = append(reqs, &r)
					}
				}
			}
		}
	}

	start := time.Now()
	_, jobs, err := s.submitBatch(reqs)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			s.mu.Lock()
			for _, j := range jobs {
				s.cancelLocked(j)
			}
			s.mu.Unlock()
			return nil, ctx.Err()
		}
	}

	out := &SweepResult{Points: make([]SweepPoint, len(jobs))}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range jobs {
		r := reqs[i]
		if j.err != nil {
			return nil, fmt.Errorf("sweep point N=%d L=%d Ms=%d C=%d alpha=%g: %w",
				r.Options.N, r.Options.L, r.Device.ScratchMem, r.Device.CapacityFG, r.Device.Alpha, j.err)
		}
		pt := SweepPoint{
			N: r.Options.N, L: r.Options.L,
			CapacityFG: r.Device.CapacityFG, ScratchMem: r.Device.ScratchMem, Alpha: r.Device.Alpha,
			Class: j.deltaClass, Path: j.deltaPath,
			Feasible: j.result.Feasible, Optimal: j.result.Optimal,
			MS: durMS(j.finished.Sub(j.started)),
		}
		if j.result.Solution != nil {
			pt.Comm = j.result.Solution.Comm
		}
		switch {
		case j.cacheHit:
			pt.Path = "cache"
		case pt.Path == delta.PathWarm:
			out.Warm++
		case pt.Path == delta.PathReuse:
			out.Reuse++
		default:
			out.Cold++
		}
		out.Points[i] = pt
	}
	s.stats.sweeps++
	s.stats.sweepPoints += uint64(len(jobs))
	out.TotalMS = durMS(time.Since(start))
	return out, nil
}

// axisOr returns the axis, or the base request's single value when the
// axis is empty.
func axisOr[T any](axis []T, base T) []T {
	if len(axis) == 0 {
		return []T{base}
	}
	return axis
}
