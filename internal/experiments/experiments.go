// Package experiments defines the benchmark rows that regenerate every
// table and figure of the paper's evaluation, plus the ablations
// DESIGN.md calls out. The same row definitions drive cmd/tptables and
// the root-level testing.B benchmarks, so EXPERIMENTS.md numbers are
// reproducible from either entry point. MILPBench is the
// branch-and-bound suite that bench/tpbench runs as its suite workload
// and TestParallelSpeedupFloor gates.
//
// The paper ran lp_solve on a 175 MHz UltraSparc; absolute runtimes are
// not comparable. What the rows preserve is the paper's shape: which
// configurations are feasible, the optimal communication costs, model
// growth with graph size, the speedup from the tightening cuts, and
// the node-count advantage of the paper's branching heuristic.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/lp"
	"repro/internal/randgraph"
)

// DefaultTimeLimit bounds each row's solve; rows that exceed it are
// reported like the paper's ">7200" entries.
const DefaultTimeLimit = 90 * time.Second

// Row is one experiment configuration (one table row).
type Row struct {
	// Label names the row in reports.
	Label string
	// GraphNum selects benchmark graph 1..6.
	GraphNum int
	// N, L are the partition bound and latency relaxation.
	N, L int
	// A, M, S is the FU exploration mix (adders+multipliers+subtracters).
	A, M, S int
	// Opt carries formulation switches; N/L/TimeLimit are overwritten.
	Opt core.Options
	// TimeLimit overrides DefaultTimeLimit when nonzero.
	TimeLimit time.Duration
}

// Result is the outcome of running a row.
type Result struct {
	Row      Row
	Stats    lp.Stats
	Feasible bool
	Optimal  bool
	Comm     int
	Used     int
	Nodes    int
	LPIter   int
	Runtime  time.Duration
}

// Device returns the target device used by all experiments: the
// XC4010-flavor part whose capacity cannot hold the full exploration
// set at once, making temporal partitioning meaningful.
func Device() library.Device { return library.XC4010() }

// Run executes one row.
func Run(r Row) (*Result, error) {
	g, err := randgraph.Paper(r.GraphNum)
	if err != nil {
		return nil, err
	}
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), r.A, r.M, r.S)
	if err != nil {
		return nil, err
	}
	opt := r.Opt
	opt.N, opt.L = r.N, r.L
	opt.TimeLimit = r.TimeLimit
	if opt.TimeLimit == 0 {
		opt.TimeLimit = DefaultTimeLimit
	}
	res, err := core.SolveInstance(core.Instance{Graph: g, Alloc: alloc, Device: Device()}, opt)
	if err != nil {
		return nil, err
	}
	out := &Result{
		Row:      r,
		Stats:    res.Stats,
		Feasible: res.Feasible,
		Optimal:  res.Optimal,
		Nodes:    res.Nodes,
		LPIter:   res.LPIterations,
		Runtime:  res.Runtime,
	}
	if res.Feasible {
		out.Comm = res.Solution.Comm
		out.Used = res.Solution.UsedPartitions()
	}
	return out, nil
}

// RunAll executes rows in order, writing a table to w as it goes (pass
// nil to suppress output).
func RunAll(rows []Row, w io.Writer) ([]*Result, error) {
	if w != nil {
		fmt.Fprintf(w, "%-28s %5s %5s | %4s %2s %6s | %8s %8s %5s %4s %10s\n",
			"label", "graph", "N/L", "A+M+S", "", "", "Var", "Const", "Feas", "Comm", "RunTime")
	}
	var out []*Result
	var firstErr error
	for _, r := range rows {
		res, err := Run(r)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("experiments: row %q: %w", r.Label, err)
			}
			if w != nil {
				fmt.Fprintf(w, "%-28s ERROR: %v\n", r.Label, err)
			}
			continue // keep collecting the remaining rows
		}
		out = append(out, res)
		if w != nil {
			fmt.Fprint(w, Format(res))
		}
	}
	return out, firstErr
}

// Format renders one result row.
func Format(r *Result) string {
	feas := "No"
	if r.Feasible {
		feas = "Yes"
	}
	runtime := fmt.Sprintf("%.2fs", r.Runtime.Seconds())
	if !r.Optimal {
		runtime = ">" + runtime // limit hit, as in the paper's >7200 rows
		if r.Feasible {
			feas = "Yes*" // incumbent found, optimality unproved
		} else {
			feas = "?"
		}
	}
	comm := "-"
	if r.Feasible {
		comm = fmt.Sprintf("%d(u%d)", r.Comm, r.Used)
	}
	return fmt.Sprintf("%-28s %5d %2d/%-2d | %d+%d+%d    | %8d %8d %5s %4s %10s  nodes=%d\n",
		r.Row.Label, r.Row.GraphNum, r.Row.N, r.Row.L,
		r.Row.A, r.Row.M, r.Row.S,
		r.Stats.Vars, r.Stats.Rows, feas, comm, runtime, r.Nodes)
}
