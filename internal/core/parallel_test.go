package core

import (
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/library"
)

// benchAlloc builds an allocation covering the named benchmark graph.
func benchAlloc(t *testing.T, name string) *library.Allocation {
	t.Helper()
	lib := library.DefaultLibrary()
	counts := map[string]int{"add16": 1, "mul16": 2}
	if name == "diffeq" {
		counts = map[string]int{"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1}
	}
	a, err := library.NewAllocation(lib, counts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestParallelMatchesSerialOnBenchmarks is the acceptance test of the
// parallel search at this layer: on every internal/benchmarks
// instance — with the scheduling probe on (tiny trees, hooks shared
// across workers) and off (pure LP search, real trees) — a solve with
// Parallelism=4 must report exactly the same feasibility, optimality
// and communication cost as the serial solve.
func TestParallelMatchesSerialOnBenchmarks(t *testing.T) {
	for name, build := range benchmarks.All() {
		for _, noProbe := range []bool{false, true} {
			label := name
			if noProbe {
				label += "/noprobe"
			}
			t.Run(label, func(t *testing.T) {
				inst := Instance{
					Graph:  build(),
					Alloc:  benchAlloc(t, name),
					Device: library.XC4010(),
				}
				opt := Options{N: 2, L: 2, Tightened: true, DisableProbe: noProbe}
				serial, err := SolveInstance(inst, opt)
				if err != nil {
					t.Fatal(err)
				}
				popt := opt
				popt.Search.Parallelism = 4
				popt.Search.Threshold = -1 // actually exercise the workers
				par, err := SolveInstance(inst, popt)
				if err != nil {
					t.Fatal(err)
				}
				if serial.Feasible != par.Feasible || serial.Optimal != par.Optimal {
					t.Fatalf("serial feas=%v opt=%v, parallel feas=%v opt=%v",
						serial.Feasible, serial.Optimal, par.Feasible, par.Optimal)
				}
				if serial.Feasible {
					if serial.Solution.Comm != par.Solution.Comm {
						t.Fatalf("comm: serial %d != parallel %d",
							serial.Solution.Comm, par.Solution.Comm)
					}
				}
				t.Logf("%s: comm serial/parallel ok, nodes %d vs %d",
					label, serial.Nodes, par.Nodes)
			})
		}
	}
}
