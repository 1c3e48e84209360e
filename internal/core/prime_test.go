package core

import (
	"context"
	"testing"

	"repro/internal/library"
	"repro/internal/oracle"
	"repro/internal/randgraph"
	"repro/internal/sched"
)

// Priming with the heuristic incumbent must never change the reported
// optimum or feasibility, only the search effort.
func TestPrimingPreservesOptimum(t *testing.T) {
	alloc := smallAlloc(t)
	dev := library.Device{Name: "t", CapacityFG: 130, Alpha: 1.0, ScratchMem: 64}
	for seed := int64(1); seed <= 10; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance{Graph: g, Alloc: alloc, Device: dev}
		plain, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true})
		if err != nil {
			t.Fatal(err)
		}
		primed, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true, PrimeHeuristic: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Feasible != primed.Feasible {
			t.Fatalf("seed %d: feasibility changed by priming: %v vs %v", seed, plain.Feasible, primed.Feasible)
		}
		if plain.Feasible && plain.Solution.Comm != primed.Solution.Comm {
			t.Fatalf("seed %d: optimum changed by priming: %d vs %d", seed, plain.Solution.Comm, primed.Solution.Comm)
		}
		if primed.Feasible && !primed.Optimal {
			t.Fatalf("seed %d: primed solve lost optimality proof", seed)
		}
	}
}

// The list-scheduling baseline's cost upper-bounds the ILP optimum, and
// a baseline-feasible instance is ILP-feasible.
func TestBaselineUpperBoundsOptimum(t *testing.T) {
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev := library.Device{Name: "d", CapacityFG: 130, Alpha: 1.0, ScratchMem: 64}
	for seed := int64(1); seed <= 12; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sched.ComputeWindows(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := sched.Baseline(context.Background(), g, alloc, dev, w, 2, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveInstance(Instance{Graph: g, Alloc: alloc, Device: dev}, Options{N: 2, L: 1, Tightened: true})
		if err != nil {
			t.Fatal(err)
		}
		if plan != nil && !res.Feasible {
			t.Fatalf("seed %d: baseline feasible but ILP infeasible", seed)
		}
		if plan != nil && res.Feasible && res.Solution.Comm > plan.Comm {
			t.Fatalf("seed %d: optimum %d > baseline %d", seed, res.Solution.Comm, plan.Comm)
		}
	}
}

// When the heuristic already finds the optimum, the primed search
// proves it by exhausting the tree and returns the heuristic solution.
func TestPrimingReturnsHeuristicSolutionWhenOptimal(t *testing.T) {
	g := randgraph.MustPaper(1)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Graph: g, Alloc: alloc, Device: library.XC4025()}
	res, err := SolveInstance(inst, Options{N: 2, L: 3, Tightened: true, PrimeHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Optimal || res.Solution == nil {
		t.Fatalf("feas=%v opt=%v sol=%v", res.Feasible, res.Optimal, res.Solution != nil)
	}
}

// Presolve must never change feasibility or the optimum.
func TestPresolvePreservesResults(t *testing.T) {
	alloc := smallAlloc(t)
	dev := library.Device{Name: "t", CapacityFG: 130, Alpha: 1.0, ScratchMem: 8}
	for seed := int64(1); seed <= 10; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance{Graph: g, Alloc: alloc, Device: dev}
		plain, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true})
		if err != nil {
			t.Fatal(err)
		}
		pre, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true, Presolve: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Feasible != pre.Feasible {
			t.Fatalf("seed %d: feasibility changed by presolve", seed)
		}
		if plain.Feasible && plain.Solution.Comm != pre.Solution.Comm {
			t.Fatalf("seed %d: optimum changed: %d vs %d", seed, plain.Solution.Comm, pre.Solution.Comm)
		}
	}
}

// The exact sweep must agree with the oracle and the pure ILP.
func TestExactSweepMatchesOracle(t *testing.T) {
	alloc := smallAlloc(t)
	for seed := int64(1); seed <= 15; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		dev := library.Device{Name: "t", CapacityFG: 130, Alpha: 1.0, ScratchMem: 8}
		want, err := oracle.Solve(g, alloc, dev, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := SolveInstance(Instance{Graph: g, Alloc: alloc, Device: dev},
			Options{N: 2, L: 1, Tightened: true, ExactSweep: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible != want.Feasible {
			t.Fatalf("seed %d: feasible=%v oracle=%v", seed, res.Feasible, want.Feasible)
		}
		if res.Feasible && res.Solution.Comm != want.Comm {
			t.Fatalf("seed %d: comm=%d oracle=%d", seed, res.Solution.Comm, want.Comm)
		}
		if !res.Optimal {
			t.Fatalf("seed %d: sweep did not prove optimality", seed)
		}
	}
}
