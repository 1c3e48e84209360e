// Package repro is a Go reproduction of Kaul & Vemuri, "Optimal
// Temporal Partitioning and Synthesis for Reconfigurable
// Architectures" (DATE 1998): a combined temporal-partitioning and
// high-level-synthesis optimizer for dynamically reconfigurable FPGAs,
// built on a from-scratch bounded-variable simplex LP solver and a
// warm-started branch-and-bound MILP solver.
//
// This package is a facade over the implementation packages:
//
//	internal/graph     — task/operation graph model and text format
//	internal/library   — FU component library and device model
//	internal/sched     — ASAP/ALAP windows, list scheduling, the
//	                     task-assignment walk and the list-scheduling
//	                     baseline flow
//	internal/lp        — bounded-variable simplex
//	internal/milp      — branch and bound with pluggable branching
//	internal/core      — the paper's 0-1 ILP formulation (eqs. 1-32)
//	internal/partition — solution model and independent verifier
//	internal/rpsim     — reconfigurable-processor execution model
//	internal/rtl       — per-segment RTL lowering
//	internal/randgraph — seeded benchmark graph generation
//
// Typical use:
//
//	g := repro.NewGraph("kernel")
//	t0 := g.AddTask("phase0")
//	a := g.AddOp(t0, repro.OpAdd, "a")
//	... build the task graph ...
//	alloc, _ := repro.PaperAllocation(repro.DefaultLibrary(), 2, 2, 1)
//	res, _ := repro.Solve(repro.Instance{
//	    Graph: g, Alloc: alloc, Device: repro.XC4010(),
//	}, repro.Options{L: 1, Tightened: true})
//	fmt.Print(res.Solution.Report(g, alloc))
package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/partition"
	"repro/internal/trace"
)

// Re-exported model types.
type (
	// Graph is a behavioral specification: a DAG of tasks, each a DAG
	// of operations.
	Graph = graph.Graph
	// OpKind identifies an abstract operation.
	OpKind = graph.OpKind
	// FUType is a characterized functional-unit type.
	FUType = library.FUType
	// Library is a set of FU types.
	Library = library.Library
	// Allocation is the FU exploration set F.
	Allocation = library.Allocation
	// Device is the target reconfigurable processor.
	Device = library.Device
	// Instance is a complete problem instance.
	Instance = core.Instance
	// Options configure formulation and solving.
	Options = core.Options
	// Result reports a solve.
	Result = core.Result
	// Solution is a verified partitioning/synthesis result.
	Solution = partition.Solution
	// Tracer stamps and forwards structured solve events; attach one
	// via Options.Trace. A nil Tracer disables tracing at zero cost.
	Tracer = trace.Tracer
	// TraceEvent is one structured observation of a traced solve.
	TraceEvent = trace.Event
	// TraceSink receives emitted trace events.
	TraceSink = trace.Sink
)

// Common operation kinds.
const (
	OpAdd = graph.OpAdd
	OpSub = graph.OpSub
	OpMul = graph.OpMul
	OpDiv = graph.OpDiv
	OpCmp = graph.OpCmp
)

// Formulation switches (see core.Options).
const (
	LinGlover       = core.LinGlover
	LinFortet       = core.LinFortet
	BranchPaper     = core.BranchPaper
	BranchFirstFrac = core.BranchFirstFrac
	BranchMostFrac  = core.BranchMostFrac
)

// NewGraph returns an empty specification.
func NewGraph(name string) *Graph { return graph.New(name) }

// ParseGraph parses the textual specification format.
func ParseGraph(text string) (*Graph, error) { return graph.ParseString(text) }

// DefaultLibrary returns the standard characterized component library.
func DefaultLibrary() *Library { return library.DefaultLibrary() }

// PaperAllocation instantiates a adders, m multipliers and s
// subtracters — the A+M+S exploration sets of the paper's tables.
func PaperAllocation(lib *Library, a, m, s int) (*Allocation, error) {
	return library.PaperAllocation(lib, a, m, s)
}

// NewAllocation instantiates counts[type] units of each named type.
func NewAllocation(lib *Library, counts map[string]int) (*Allocation, error) {
	return library.NewAllocation(lib, counts)
}

// XC4010 returns the default paper-era target device.
func XC4010() Device { return library.XC4010() }

// XC4025 returns the larger target device.
func XC4025() Device { return library.XC4025() }

// Solve builds the 0-1 ILP for the instance and optimizes it by branch
// and bound, returning the verified optimal design.
func Solve(inst Instance, opt Options) (*Result, error) {
	return core.SolveInstance(inst, opt)
}

// SolveContext is Solve under a context: cancelling ctx cooperatively
// stops the branch-and-bound search (down to the simplex pivot loop)
// and returns a Result with Cancelled set, carrying the best incumbent
// found so far when one exists.
func SolveContext(ctx context.Context, inst Instance, opt Options) (*Result, error) {
	return core.SolveInstanceContext(ctx, inst, opt)
}

// EstimateN runs the list-scheduling heuristic that upper-bounds the
// number of temporal segments (the paper's preprocessing step).
func EstimateN(inst Instance) (int, error) { return core.EstimateN(inst) }

// NewTracer returns a tracer emitting to sink; set it on
// Options.Trace to observe a solve (model shape, root bound, node
// progress, incumbents, terminal status).
func NewTracer(sink TraceSink) *Tracer { return trace.New(sink) }

// NewTraceWriter returns a sink encoding each event as one JSON line
// (NDJSON) on w — the format of the tpsyn/tptables -trace flag.
func NewTraceWriter(w io.Writer) TraceSink { return trace.NewWriterSink(w) }
