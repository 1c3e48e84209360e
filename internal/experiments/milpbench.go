package experiments

// The serial-vs-parallel branch-and-bound benchmark suite behind
// cmd/tptables -benchmilp and BenchmarkMILPParallel: named
// internal/benchmarks instances with the scheduling probe disabled, so
// the solves exercise the real LP-driven search tree that
// milp.Options.Parallelism partitions across workers.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/milp"
)

// MILPBenchEntry is one named instance of the parallel-search suite.
type MILPBenchEntry struct {
	Name string
	Inst core.Instance
	Opt  core.Options
}

// MILPRunStats records one solve of a suite entry. PivotsPerSec and
// NSPerPivot are the derived pivot-throughput numbers the trajectory
// series tracks across engine changes; Engine names the LP engine the
// run selected (dense tableau or sparse revised simplex).
type MILPRunStats struct {
	NS           int64   `json:"ns"`
	Nodes        int     `json:"nodes"`
	LPPivots     int     `json:"lp_pivots"`
	PivotsPerSec float64 `json:"pivots_per_sec,omitempty"`
	NSPerPivot   float64 `json:"ns_per_pivot,omitempty"`
	Engine       string  `json:"engine,omitempty"`
	Comm         int     `json:"comm"`
	Feasible     bool    `json:"feasible"`
	Optimal      bool    `json:"optimal"`
	// Mode names the search mode the solve resolved to ("serial",
	// "steal", "portfolio"); the parallel legs of the suite request the
	// work-stealing pool explicitly.
	Mode string `json:"mode,omitempty"`
	// Steals counts work transfers between the pool's workers.
	Steals int64 `json:"steals,omitempty"`
	// Cuts is the number of root cutting planes applied.
	Cuts int `json:"cuts,omitempty"`
	// FirstIncNodes/FirstIncMS locate the first incumbent (0 nodes
	// means the root dive found it before the tree search started).
	FirstIncNodes int64   `json:"nodes_to_first_incumbent,omitempty"`
	FirstIncMS    float64 `json:"ms_to_first_incumbent,omitempty"`
	// ProofMS is the wall time to a proved verdict; 0 when a limit
	// stopped the run.
	ProofMS float64 `json:"ms_to_proof,omitempty"`
}

// MILPBenchResult pairs the serial and parallel solves of one entry.
// Speedup is serial time over parallel time; Comm/Feasible/Optimal must
// agree between the two runs (RunMILPBench errors otherwise).
type MILPBenchResult struct {
	Name     string       `json:"name"`
	Serial   MILPRunStats `json:"serial"`
	Parallel MILPRunStats `json:"parallel"`
	Speedup  float64      `json:"speedup"`
}

// MILPBenchReport is the schema of BENCH_milp.json.
type MILPBenchReport struct {
	// GOMAXPROCS records the CPUs actually available to the run: with
	// one CPU the parallel workers time-slice a single core and the
	// speedup column measures overhead, not parallelism.
	GOMAXPROCS  int               `json:"gomaxprocs"`
	Parallelism int               `json:"parallelism"`
	Entries     []MILPBenchResult `json:"entries"`
}

// milpBenchAlloc builds the exploration set used by the suite: one
// adder and two multipliers (plus a subtracter and comparator for the
// differential-equation benchmark, which needs them).
func milpBenchAlloc(name string) (*library.Allocation, error) {
	counts := map[string]int{"add16": 1, "mul16": 2}
	if name == "diffeq" {
		counts = map[string]int{"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1}
	}
	return library.NewAllocation(library.DefaultLibrary(), counts)
}

// MILPBench returns the suite, easiest first. Every entry disables the
// exact-scheduling probe: the probe collapses these trees to a handful
// of nodes, and the point of the suite is the branch-and-bound search
// itself. The fir16 L=3 entry is the hardest (deepest tree, most LP
// pivots).
func MILPBench() ([]MILPBenchEntry, error) {
	all := benchmarks.All()
	var suite []MILPBenchEntry
	for _, cfg := range []struct {
		graph string
		l     int
	}{
		{"diffeq", 2},
		{"ewf", 2},
		{"fir16", 2},
		{"ewf", 3},
		{"fir16", 3},
	} {
		alloc, err := milpBenchAlloc(cfg.graph)
		if err != nil {
			return nil, err
		}
		suite = append(suite, MILPBenchEntry{
			Name: fmt.Sprintf("%s/N2L%d", cfg.graph, cfg.l),
			Inst: core.Instance{
				Graph:  all[cfg.graph](),
				Alloc:  alloc,
				Device: library.XC4010(),
			},
			Opt: core.Options{
				N: 2, L: cfg.l, Tightened: true, DisableProbe: true,
				TimeLimit: DefaultTimeLimit,
			},
		})
	}
	return suite, nil
}

// runMILPEntry solves one entry at the given parallelism. The parallel
// leg disables the root-size gate and requests the work-stealing mode
// with root strengthening: the suite exists to measure the true
// serial-vs-parallel cost (including the overhead the gate hides), so
// a gated fallback would silently benchmark serial against serial.
func runMILPEntry(e MILPBenchEntry, parallelism int) (MILPRunStats, error) {
	opt := e.Opt
	if parallelism > 1 {
		opt.Search = core.SearchOptions{
			Parallelism: parallelism,
			Threshold:   -1,
			Mode:        milp.ModeSteal,
			Cuts:        core.ToggleOn,
			Dive:        core.ToggleOn,
		}
	}
	start := time.Now()
	res, err := core.SolveInstance(e.Inst, opt)
	if err != nil {
		return MILPRunStats{}, err
	}
	st := MILPRunStats{
		NS:            time.Since(start).Nanoseconds(),
		Nodes:         res.Nodes,
		LPPivots:      res.LPIterations,
		Engine:        res.LPEngine,
		Feasible:      res.Feasible,
		Optimal:       res.Optimal,
		Mode:          res.SearchMode,
		Steals:        res.Steals,
		Cuts:          res.CutsApplied,
		FirstIncNodes: res.FirstIncumbentNodes,
		FirstIncMS:    float64(res.TimeToFirstIncumbent.Nanoseconds()) / 1e6,
		ProofMS:       float64(res.TimeToProof.Nanoseconds()) / 1e6,
	}
	if st.NS > 0 && st.LPPivots > 0 {
		st.PivotsPerSec = float64(st.LPPivots) / (float64(st.NS) / 1e9)
		st.NSPerPivot = float64(st.NS) / float64(st.LPPivots)
	}
	if res.Feasible {
		st.Comm = res.Solution.Comm
	}
	return st, nil
}

// RunMILPBench solves every suite entry serially and with the given
// parallelism (0 means GOMAXPROCS, floored at 2 so the parallel path is
// always exercised) and cross-checks that both solves agree on
// feasibility, optimality and the communication cost — the equivalence
// contract of milp.Options.Parallelism.
func RunMILPBench(parallelism int) (MILPBenchReport, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
		if parallelism < 2 {
			parallelism = 2
		}
	}
	rep := MILPBenchReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: parallelism,
	}
	suite, err := MILPBench()
	if err != nil {
		return rep, err
	}
	for _, e := range suite {
		serial, err := runMILPEntry(e, 0)
		if err != nil {
			return rep, fmt.Errorf("%s serial: %w", e.Name, err)
		}
		par, err := runMILPEntry(e, parallelism)
		if err != nil {
			return rep, fmt.Errorf("%s parallel: %w", e.Name, err)
		}
		if serial.Feasible != par.Feasible || serial.Optimal != par.Optimal || serial.Comm != par.Comm {
			return rep, fmt.Errorf("%s: serial (feas=%v opt=%v comm=%d) != parallel (feas=%v opt=%v comm=%d)",
				e.Name, serial.Feasible, serial.Optimal, serial.Comm,
				par.Feasible, par.Optimal, par.Comm)
		}
		r := MILPBenchResult{Name: e.Name, Serial: serial, Parallel: par}
		if par.NS > 0 {
			r.Speedup = float64(serial.NS) / float64(par.NS)
		}
		rep.Entries = append(rep.Entries, r)
	}
	return rep, nil
}
