package experiments

// The warm-vs-cold design-space sweep benchmark behind cmd/tptables
// -sweepbench: one benchmark instance swept over an α grid twice —
// once chained through the delta engine (each point warm-starting or
// conclusion-reusing from its neighbor) and once solved cold from
// scratch — with a per-point verdict cross-check. The speedup column
// is the amend subsystem's headline number.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/library"
)

// SweepBenchPoint is one grid point timed both ways.
type SweepBenchPoint struct {
	Alpha float64 `json:"alpha"`
	// WarmNS is the delta-engine chained solve, ColdNS the from-scratch
	// solve of the identical instance.
	WarmNS int64 `json:"warm_ns"`
	ColdNS int64 `json:"cold_ns"`
	// Class and Path report the engine's dispatch against the previous
	// grid point.
	Class    string `json:"class,omitempty"`
	Path     string `json:"path"`
	Feasible bool   `json:"feasible"`
	Comm     int    `json:"comm,omitempty"`
}

// SweepBenchReport is the schema of the -sweepbench JSON report.
type SweepBenchReport struct {
	GOMAXPROCS int               `json:"gomaxprocs"`
	Graph      string            `json:"graph"`
	N          int               `json:"n"`
	L          int               `json:"l"`
	Points     []SweepBenchPoint `json:"points"`
	WarmNS     int64             `json:"warm_ns"`
	ColdNS     int64             `json:"cold_ns"`
	// Speedup is total cold time over total warm time across the grid.
	Speedup float64 `json:"speedup"`
	Warm    int     `json:"warm"`
	Reuse   int     `json:"reuse"`
	Cold    int     `json:"cold"`
}

// sweepBenchAlphas is the scanned α grid, ascending: each step
// tightens the capacity row (rhs C/α shrinks), so the chain exercises
// both the warm-restart and the monotone conclusion-reuse paths.
var sweepBenchAlphas = []float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}

// RunSweepBench sweeps the diffeq benchmark over the α grid warm and
// cold and cross-checks that every point agrees on feasibility and
// communication cost — the differential contract of the delta engine.
func RunSweepBench() (SweepBenchReport, error) {
	rep := SweepBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Graph:      "diffeq",
		N:          2,
		L:          2,
	}
	alloc, err := milpBenchAlloc("diffeq")
	if err != nil {
		return rep, err
	}
	g := benchmarks.All()["diffeq"]()
	opt := core.Options{
		N: rep.N, L: rep.L, Tightened: true, DisableProbe: true,
		TimeLimit: DefaultTimeLimit,
	}
	eng := delta.NewEngine(len(sweepBenchAlphas))
	ctx := context.Background()
	prevKey := ""
	for i, a := range sweepBenchAlphas {
		dev := library.XC4010()
		dev.Alpha = a
		inst := core.Instance{Graph: g, Alloc: alloc, Device: dev}

		key := fmt.Sprintf("sweep-%d", i)
		start := time.Now()
		warm, info, err := eng.Solve(ctx, key, prevKey, inst, opt)
		warmNS := time.Since(start).Nanoseconds()
		if err != nil {
			return rep, fmt.Errorf("alpha %g warm: %w", a, err)
		}
		prevKey = key

		start = time.Now()
		cold, err := core.SolveInstance(inst, opt)
		coldNS := time.Since(start).Nanoseconds()
		if err != nil {
			return rep, fmt.Errorf("alpha %g cold: %w", a, err)
		}

		if warm.Feasible != cold.Feasible || warm.Optimal != cold.Optimal {
			return rep, fmt.Errorf("alpha %g: warm (feas=%v opt=%v) != cold (feas=%v opt=%v)",
				a, warm.Feasible, warm.Optimal, cold.Feasible, cold.Optimal)
		}
		pt := SweepBenchPoint{
			Alpha: a, WarmNS: warmNS, ColdNS: coldNS,
			Class: info.Class, Path: info.Path, Feasible: warm.Feasible,
		}
		if warm.Feasible {
			if warm.Solution.Comm != cold.Solution.Comm {
				return rep, fmt.Errorf("alpha %g: warm comm %d != cold comm %d",
					a, warm.Solution.Comm, cold.Solution.Comm)
			}
			pt.Comm = warm.Solution.Comm
		}
		switch info.Path {
		case delta.PathWarm:
			rep.Warm++
		case delta.PathReuse:
			rep.Reuse++
		default:
			rep.Cold++
		}
		rep.Points = append(rep.Points, pt)
		rep.WarmNS += warmNS
		rep.ColdNS += coldNS
	}
	if rep.WarmNS > 0 {
		rep.Speedup = float64(rep.ColdNS) / float64(rep.WarmNS)
	}
	return rep, nil
}
