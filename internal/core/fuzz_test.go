package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/library"
	"repro/internal/oracle"
	"repro/internal/randgraph"
	"repro/internal/sched"
)

// FuzzDifferential is the differential harness of the MILP pipeline:
// random tiny instances are solved four ways — the full MILP pipeline
// (with exact certification on), the same pipeline with the exact
// sweep, the exhaustive oracle, and the list-scheduling baseline — and
// the verdicts are cross-checked:
//
//   - MILP and oracle must agree exactly on feasibility and on the
//     optimal communication cost, and so must the exact sweep whenever
//     its solve is optimal,
//   - the baseline is one-sided: a constructive baseline solution
//     proves feasibility and upper-bounds the optimum,
//   - every certificate the pipeline attaches must re-verify.
//
// Disagreements become corpus entries under
// testdata/fuzz/FuzzDifferential; run locally with
//
//	go test -fuzz=FuzzDifferential -fuzztime=60s ./internal/core/
//
// (see EXPERIMENTS.md). CI runs the same invocation for 60 seconds.
func FuzzDifferential(f *testing.F) {
	// seeds mirror the TestOracleCrossCheck sweep corners
	f.Add(int64(1), int64(0), int64(0))
	f.Add(int64(2), int64(1), int64(1))
	f.Add(int64(7), int64(0), int64(1))
	f.Add(int64(13), int64(1), int64(0))
	f.Add(int64(19), int64(42), int64(-3))
	f.Add(int64(25), int64(-8), int64(5))

	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	caps := []int{120, 160, 400}
	mems := []int{3, 8, 64}

	f.Fuzz(func(t *testing.T, seed, nRaw, lRaw int64) {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		abs := func(v int64) int64 {
			if v < 0 {
				// min int64 negates to itself; mask below keeps it positive
				v = -v
			}
			return v & 0x7fffffff
		}
		N := 2 + int(abs(nRaw)%2)
		L := int(abs(lRaw) % 3)
		dev := library.Device{
			Name:       "fuzz",
			CapacityFG: caps[abs(seed)%int64(len(caps))],
			Alpha:      1.0,
			ScratchMem: mems[abs(seed/3)%int64(len(mems))],
		}

		want, err := oracle.Solve(g, alloc, dev, N, L)
		if err != nil {
			if errors.Is(err, oracle.ErrTooLarge) {
				t.Skip() // outside the oracle's exhaustive envelope
			}
			t.Fatalf("oracle: %v", err)
		}

		inst := Instance{Graph: g, Alloc: alloc, Device: dev}
		// solve runs the pipeline and reports whether it proved a verdict,
		// failing unless that verdict is the oracle's
		solve := func(engine string, opt Options) (*Result, bool) {
			res, err := SolveInstance(inst, opt)
			if err != nil {
				t.Fatalf("seed %d N=%d L=%d: %s: %v", seed, N, L, engine, err)
			}
			if !res.Optimal {
				return res, false // time limit hit: no verdict to compare
			}
			if res.Feasible != want.Feasible {
				t.Fatalf("seed %d N=%d L=%d: %s feasible=%v, oracle=%v",
					seed, N, L, engine, res.Feasible, want.Feasible)
			}
			if res.Feasible && res.Solution.Comm != want.Comm {
				t.Fatalf("seed %d N=%d L=%d: %s comm=%d, oracle=%d",
					seed, N, L, engine, res.Solution.Comm, want.Comm)
			}
			return res, true
		}
		opt := Options{
			N: N, L: L,
			Linearization: LinGlover,
			Tightened:     true,
			TimeLimit:     30 * time.Second,
		}
		sweep := opt
		sweep.ExactSweep = true
		solve("exact sweep", sweep)

		opt.Certify = true
		res, ok := solve("milp", opt)
		if !ok {
			t.Skip()
		}
		if c := res.Certificate; c != nil && !c.Valid {
			t.Fatalf("seed %d N=%d L=%d: certificate failed: %+v", seed, N, L, c.Checks)
		}
		if res.Feasible && res.Certificate == nil {
			t.Fatalf("seed %d N=%d L=%d: feasible optimal solve carries no certificate", seed, N, L)
		}

		// baseline: constructive, so one-sided — may miss solutions but
		// must never beat the proved optimum or invent feasibility
		w, err := sched.ComputeWindows(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := sched.Baseline(context.Background(), g, alloc, dev, w, N, L, 0)
		if err != nil {
			t.Fatalf("baseline: %v", err)
		}
		if plan != nil {
			if !want.Feasible {
				t.Fatalf("seed %d N=%d L=%d: baseline found a solution on an infeasible instance", seed, N, L)
			}
			if plan.Comm < want.Comm {
				t.Fatalf("seed %d N=%d L=%d: baseline comm %d beats the optimum %d",
					seed, N, L, plan.Comm, want.Comm)
			}
		}
	})
}
