package experiments

// The branch-and-bound benchmark suite: named internal/benchmarks
// instances with the scheduling probe disabled, so the solves exercise
// the real LP-driven search tree that milp.Options.Parallelism
// partitions across workers. bench/tpbench runs it as its suite
// workload; TestParallelSpeedupFloor and BenchmarkMILPParallel time it
// serial against parallel.

import (
	"fmt"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/library"
)

// MILPBenchEntry is one named instance of the parallel-search suite.
type MILPBenchEntry struct {
	Name string
	Inst core.Instance
	Opt  core.Options
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
