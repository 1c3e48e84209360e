package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rpsim"
	"repro/internal/rtl"
)

// FlowOptions configure the one-call end-to-end flow. The embedded
// canonical Options carry the solver knobs (L, Linearization,
// TimeLimit, Search, Trace, ...); N is overridden by the flow's
// own widening loop, and Tightened plus ExactSweep are forced on for
// every attempt. TimeLimit bounds each attempt (default 60 s).
type FlowOptions struct {
	Options

	// ExtraN bounds how many times the flow widens N beyond the
	// list-scheduling estimate when the estimate proves infeasible.
	// Default 2.
	ExtraN int
	// Inputs optionally provides source-operation values for the
	// simulation; missing sources default to 1.
	Inputs map[int]int64
}

// FlowResult is the outcome of the end-to-end flow.
type FlowResult struct {
	// Result is the solver outcome of the successful attempt.
	*Result
	// N is the segment bound of the successful attempt.
	N int
	// Timing is the simulated runtime breakdown on the device.
	Timing rpsim.Timing
	// Values are the simulated dataflow values per operation.
	Values map[int]int64
	// Netlists are the per-segment RTL lowerings.
	Netlists []*rtl.Netlist
}

// Flow runs the complete paper flow on an instance: estimate the
// number of segments with the list-scheduling heuristic, optimize (with
// the exact sweep and heuristic priming enabled), widen N if the
// estimate proves infeasible, then simulate the winning design on the
// device model and lower it to RTL.
func Flow(inst Instance, opt FlowOptions) (*FlowResult, error) {
	return FlowContext(context.Background(), inst, opt)
}

// FlowContext is Flow under a context: cancelling ctx cooperatively
// stops the optimizer mid-search (deadlines and client disconnects
// actually stop work) and returns the context's error.
func FlowContext(ctx context.Context, inst Instance, opt FlowOptions) (*FlowResult, error) {
	if opt.ExtraN <= 0 {
		opt.ExtraN = 2
	}
	if opt.TimeLimit <= 0 {
		opt.TimeLimit = 60 * time.Second
	}
	est, err := core.EstimateN(inst)
	if err != nil {
		return nil, err
	}
	var res *Result
	n := est
	for ; n <= est+opt.ExtraN; n++ {
		o := opt.Options
		o.N = n
		o.Tightened = true
		o.ExactSweep = true
		o.TimeLimit = opt.TimeLimit
		res, err = core.SolveInstanceContext(ctx, inst, o)
		if err != nil {
			return nil, err
		}
		if res.Cancelled {
			if cerr := context.Cause(ctx); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("repro: flow cancelled at N=%d", n)
		}
		if res.Feasible {
			break
		}
		if !res.Optimal {
			return nil, fmt.Errorf("repro: flow inconclusive at N=%d within the time limit", n)
		}
	}
	if res == nil || !res.Feasible {
		return nil, fmt.Errorf("repro: infeasible up to N=%d; raise L or ExtraN", est+opt.ExtraN)
	}
	values, timing, err := rpsim.Run(inst.Graph, inst.Alloc, inst.Device, res.Solution, opt.Inputs)
	if err != nil {
		return nil, fmt.Errorf("repro: simulation of the solved design failed: %w", err)
	}
	nets, err := rtl.BuildAll(inst.Graph, inst.Alloc, res.Solution)
	if err != nil {
		return nil, fmt.Errorf("repro: RTL lowering failed: %w", err)
	}
	return &FlowResult{
		Result:   res,
		N:        n,
		Timing:   timing,
		Values:   values,
		Netlists: nets,
	}, nil
}
