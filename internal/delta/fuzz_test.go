package delta

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/randgraph"
)

// FuzzDifferential is the amend-path twin of the core differential
// fuzzer: a random tiny instance is solved cold through the engine,
// then a fuzzer-chosen device edit (capacity, scratch, α — the axes
// /v1/jobs/{id}/amend exposes) is re-solved through the engine's fast
// paths and against a from-scratch core solve. The two must agree
// exactly on feasibility and optimal comm, and every certificate must
// re-verify against the edited problem. Run locally with
//
//	go test -fuzz=FuzzDifferential -fuzztime=60s ./internal/delta/
//
// (see EXPERIMENTS.md); CI runs the same invocation.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0))
	f.Add(int64(7), int64(1), int64(3))
	f.Add(int64(13), int64(2), int64(1))
	f.Add(int64(19), int64(3), int64(2))
	f.Add(int64(25), int64(4), int64(5))

	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	caps := []int{120, 160, 400, 600}
	mems := []int{3, 8, 64}
	alphas := []float64{0.7, 0.8, 0.9, 1.0}

	f.Fuzz(func(t *testing.T, seed, editRaw, pickRaw int64) {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Skip() // degenerate generator parameters
		}
		abs := func(v int64) int64 {
			if v < 0 {
				v = -v
			}
			return v & 0x7fffffff
		}
		opt := core.Options{
			N: 2 + int(abs(seed)%2), L: int(abs(seed/5) % 3),
			Linearization: core.LinGlover,
			Tightened:     true,
			Certify:       true,
			TimeLimit:     30 * time.Second,
		}
		baseDev := library.Device{
			Name:       "fuzz",
			CapacityFG: caps[abs(seed)%int64(len(caps))],
			Alpha:      alphas[abs(seed/7)%int64(len(alphas))],
			ScratchMem: mems[abs(seed/3)%int64(len(mems))],
		}
		// the fuzzer picks the amend axis and the new value
		dev := baseDev
		pick := abs(pickRaw)
		switch abs(editRaw) % 4 {
		case 0:
			dev.CapacityFG = caps[pick%int64(len(caps))]
		case 1:
			dev.ScratchMem = mems[pick%int64(len(mems))]
		case 2:
			dev.Alpha = alphas[pick%int64(len(alphas))]
		default:
			dev.CapacityFG = caps[pick%int64(len(caps))]
			dev.Alpha = alphas[(pick/4)%int64(len(alphas))]
		}

		ctx := context.Background()
		eng := NewEngine(2)
		base, _, err := eng.Solve(ctx, "base", "", core.Instance{Graph: g, Alloc: alloc, Device: baseDev}, opt)
		if err != nil {
			t.Fatalf("base: %v", err)
		}
		if !base.Optimal {
			t.Skip() // time limit hit: nothing cached worth amending
		}

		inst := core.Instance{Graph: g, Alloc: alloc, Device: dev}
		got, info, err := eng.Solve(ctx, "amend", "base", inst, opt)
		if err != nil {
			t.Fatalf("amend: %v", err)
		}
		want, err := core.SolveInstance(inst, opt)
		if err != nil {
			t.Fatalf("cold: %v", err)
		}
		if !got.Optimal || !want.Optimal {
			t.Skip()
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("seed %d edit %d pick %d (path %s): amend feasible=%v, cold=%v",
				seed, editRaw, pickRaw, info.Path, got.Feasible, want.Feasible)
		}
		if got.Feasible && got.Solution.Comm != want.Solution.Comm {
			t.Fatalf("seed %d edit %d pick %d (path %s): amend comm=%d, cold=%d",
				seed, editRaw, pickRaw, info.Path, got.Solution.Comm, want.Solution.Comm)
		}
		if c := got.Certificate; c != nil && !c.Valid {
			t.Fatalf("seed %d edit %d pick %d: certificate failed: %+v", seed, editRaw, pickRaw, c.Checks)
		}
		if got.Feasible && got.Certificate == nil {
			t.Fatalf("seed %d edit %d pick %d: feasible amended solve carries no certificate", seed, editRaw, pickRaw)
		}
	})
}
