package delta

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/randgraph"
)

func testAlloc(t testing.TB) *library.Allocation {
	t.Helper()
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return alloc
}

func testOpt(certify bool) core.Options {
	return core.Options{
		N: 2, L: 1,
		Linearization: core.LinGlover,
		Tightened:     true,
		Certify:       certify,
		TimeLimit:     30 * time.Second,
	}
}

// sameVerdict asserts the engine result and a cold core solve agree
// bit-for-bit on verdict and objective.
func sameVerdict(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	if got.Optimal != want.Optimal || got.Feasible != want.Feasible {
		t.Fatalf("%s: engine optimal=%v feasible=%v, cold optimal=%v feasible=%v",
			label, got.Optimal, got.Feasible, want.Optimal, want.Feasible)
	}
	if got.Feasible && got.Solution.Comm != want.Solution.Comm {
		t.Fatalf("%s: engine comm=%d, cold comm=%d", label, got.Solution.Comm, want.Solution.Comm)
	}
}

// TestEngineDifferential is the amend differential guard: every fast
// path the engine takes for a device edit must equal a cold solve of
// the edited instance, with certificates re-verifying (certify on
// disables conclusion reuse, so the warm path is what is exercised).
func TestEngineDifferential(t *testing.T) {
	alloc := testAlloc(t)
	opt := testOpt(true)
	ctx := context.Background()

	baseDev := library.Device{Name: "d", CapacityFG: 400, Alpha: 1.0, ScratchMem: 64}
	edits := []library.Device{
		{Name: "d", CapacityFG: 160, Alpha: 1.0, ScratchMem: 64}, // capacity tighten
		{Name: "d", CapacityFG: 600, Alpha: 1.0, ScratchMem: 64}, // capacity relax
		{Name: "d", CapacityFG: 400, Alpha: 1.0, ScratchMem: 8},  // scratch tighten
		{Name: "d", CapacityFG: 400, Alpha: 0.8, ScratchMem: 64}, // alpha relax (C/α grows)
		{Name: "d", CapacityFG: 120, Alpha: 0.9, ScratchMem: 3},  // everything at once
	}

	warmSeen := 0
	for _, seed := range []int64{1, 7, 13} {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		eng := NewEngine(64)
		baseKey := fmt.Sprintf("base-%d", seed)
		baseInst := core.Instance{Graph: g, Alloc: alloc, Device: baseDev}
		baseRes, info, err := eng.Solve(ctx, baseKey, "", baseInst, opt)
		if err != nil {
			t.Fatalf("seed %d base: %v", seed, err)
		}
		if info.Path != PathCold || info.Class != "" {
			t.Fatalf("seed %d base dispatched as %+v, want cold/no-class", seed, info)
		}
		if !baseRes.Optimal {
			t.Fatalf("seed %d base not optimal", seed)
		}

		for ei, dev := range edits {
			label := fmt.Sprintf("seed %d edit %d", seed, ei)
			inst := core.Instance{Graph: g, Alloc: alloc, Device: dev}
			got, info, err := eng.Solve(ctx, fmt.Sprintf("%s-e%d", baseKey, ei), baseKey, inst, opt)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if info.Class != "bounds" {
				t.Fatalf("%s: classified %q, want bounds (device edits are pure RHS)", label, info.Class)
			}
			if info.Path == PathReuse {
				t.Fatalf("%s: conclusion reuse must be disabled under -certify", label)
			}
			if info.Path == PathWarm {
				warmSeen++
			}
			want, err := core.SolveInstance(inst, opt)
			if err != nil {
				t.Fatalf("%s cold: %v", label, err)
			}
			sameVerdict(t, label, got, want)
			if c := got.Certificate; c == nil || !c.Valid {
				t.Fatalf("%s: amended solve certificate missing or invalid", label)
			}
		}
	}
	if warmSeen == 0 {
		t.Fatal("no edit took the warm path — root bases are not being retained")
	}
}

// TestEngineReuse checks the monotone conclusion-reuse path: with
// certification off, a pure tightening whose cached optimum still
// verifies is answered without any search, and the answer equals cold.
func TestEngineReuse(t *testing.T) {
	alloc := testAlloc(t)
	opt := testOpt(false)
	ctx := context.Background()

	g, err := randgraph.Tiny(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(64)
	base := core.Instance{Graph: g, Alloc: alloc,
		Device: library.Device{Name: "d", CapacityFG: 400, Alpha: 1.0, ScratchMem: 64}}
	baseRes, _, err := eng.Solve(ctx, "base", "", base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !baseRes.Optimal || !baseRes.Feasible {
		t.Fatalf("base optimal=%v feasible=%v, want optimal feasible", baseRes.Optimal, baseRes.Feasible)
	}

	// a mild capacity cut: the cached optimum still fits, so the engine
	// may answer from the cache alone
	tight := core.Instance{Graph: g, Alloc: alloc,
		Device: library.Device{Name: "d", CapacityFG: 390, Alpha: 1.0, ScratchMem: 64}}
	got, info, err := eng.Solve(ctx, "tight", "base", tight, opt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path != PathReuse {
		t.Fatalf("tightening with surviving optimum dispatched as %q, want reuse", info.Path)
	}
	if got.Nodes != 0 {
		t.Fatalf("reuse path searched %d nodes, want 0", got.Nodes)
	}
	want, err := core.SolveInstance(tight, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, "reuse", got, want)

	if m := eng.Metrics(); m.Reuse != 1 || m.Solves != 2 {
		t.Fatalf("metrics %+v, want reuse=1 solves=2", m)
	}
}

// TestEngineSweepChain walks α ladders where each point amends the
// previous one — the access pattern of a /v1/batch chain — and checks
// that every point agrees with a cold solve and every successor is a
// bounds edit that stays off the cold path.
func TestEngineSweepChain(t *testing.T) {
	ctx := context.Background()
	tiny, err := randgraph.Tiny(7)
	if err != nil {
		t.Fatal(err)
	}
	diffeqAlloc, err := library.NewAllocation(library.DefaultLibrary(),
		map[string]int{"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		alloc  *library.Allocation
		dev    library.Device
		opt    core.Options
		alphas []float64
	}{
		{"tiny", tiny, testAlloc(t),
			library.Device{Name: "d", CapacityFG: 400, ScratchMem: 64},
			testOpt(false), []float64{0.7, 0.8, 0.9, 1.0}},
		// diffeq on the XC4010: the ladder crosses from feasible to
		// proved infeasible (α ≥ 0.85)
		{"diffeq", benchmarks.Diffeq(), diffeqAlloc, library.XC4010(),
			core.Options{N: 2, L: 2, Tightened: true, DisableProbe: true, TimeLimit: 30 * time.Second},
			[]float64{0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewEngine(64)
			paths := map[string]int{}
			prevKey := ""
			for i, a := range tc.alphas {
				key := fmt.Sprintf("pt-%d", i)
				dev := tc.dev
				dev.Alpha = a
				inst := core.Instance{Graph: tc.g, Alloc: tc.alloc, Device: dev}
				got, info, err := eng.Solve(ctx, key, prevKey, inst, tc.opt)
				if err != nil {
					t.Fatalf("alpha %v: %v", a, err)
				}
				want, err := core.SolveInstance(inst, tc.opt)
				if err != nil {
					t.Fatalf("alpha %v cold: %v", a, err)
				}
				sameVerdict(t, fmt.Sprintf("alpha %v", a), got, want)
				if i > 0 {
					if info.Class != "bounds" {
						t.Fatalf("alpha %v: classified %q, want bounds", a, info.Class)
					}
					if info.Path == PathCold {
						t.Fatalf("alpha %v: successor solved cold", a)
					}
					paths[info.Path]++
				}
				prevKey = key
			}
			t.Logf("successor paths %v", paths)
		})
	}
}

// TestEngineLRU pins the one cache's two bounds: results beyond the
// engine's size are evicted least recently used first, and only the
// maxBuilds entries most recently solved or used as a warm base keep
// their build — an exact hit refreshes the result, not the build.
func TestEngineLRU(t *testing.T) {
	res := &core.Result{}
	key := func(i int) string { return fmt.Sprintf("k%d", i) }

	small := NewEngine(2)
	small.store("a", res, nil)
	small.store("b", res, nil)
	if _, ok := small.Lookup("a"); !ok {
		t.Fatal("a evicted early")
	}
	small.store("c", res, nil) // evicts b: a was just read
	if _, ok := small.Lookup("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := small.Lookup("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	if m := small.Metrics(); m.Entries != 2 {
		t.Fatalf("entries %d, want 2", m.Entries)
	}
	off := NewEngine(0)
	off.store("a", res, nil)
	if _, ok := off.Lookup("a"); ok {
		t.Fatal("disabled cache stored a result")
	}

	const size = maxBuilds + 4
	eng := NewEngine(size)
	hasBuild := func(i int) bool {
		en, ok := eng.entries[key(i)]
		return ok && en.build != nil
	}
	for i := 0; i < maxBuilds+2; i++ {
		eng.store(key(i), res, &build{})
	}
	for i := 0; i < maxBuilds+2; i++ {
		if _, ok := eng.Lookup(key(i)); !ok {
			t.Fatalf("%s evicted below the size bound", key(i))
		}
		if hasBuild(i) != (i >= 2) {
			t.Fatalf("%s build kept=%v, want only the newest %d builds", key(i), hasBuild(i), maxBuilds)
		}
	}
	// a warm-base use refreshes the build, an exact hit does not: the
	// next solve drops k3's build (oldest unused), not k2's
	if _, b := eng.base(key(2)); b == nil {
		t.Fatal("warm base k2 has no build")
	}
	if _, ok := eng.Lookup(key(3)); !ok {
		t.Fatal("k3 missing")
	}
	eng.store(key(100), res, &build{})
	if !hasBuild(2) || hasBuild(3) {
		t.Fatalf("after a warm use of k2 and a hit on k3: k2 build=%v k3 build=%v", hasBuild(2), hasBuild(3))
	}
	// evicting a result past the size bound drops its build with it
	for i := 200; i < 200+size; i++ {
		eng.store(key(i), res, &build{})
	}
	if m := eng.Metrics(); m.Entries != size || len(eng.builds) != maxBuilds {
		t.Fatalf("entries=%d builds=%d, want %d/%d", m.Entries, len(eng.builds), size, maxBuilds)
	}
}

// TestExactHitsKeepChainBase lands exact hits on maxBuilds other keys
// between two steps of a warm chain: the reads must not strip the
// chain head's build, so the successor still leaves the cold path.
func TestExactHitsKeepChainBase(t *testing.T) {
	alloc := testAlloc(t)
	opt := testOpt(false)
	ctx := context.Background()
	g, err := randgraph.Tiny(7)
	if err != nil {
		t.Fatal(err)
	}
	inst := func(capacity int, alpha float64) core.Instance {
		return core.Instance{Graph: g, Alloc: alloc,
			Device: library.Device{Name: "d", CapacityFG: capacity, Alpha: alpha, ScratchMem: 64}}
	}
	eng := NewEngine(64)
	for i := 0; i < maxBuilds; i++ {
		if _, _, err := eng.Solve(ctx, fmt.Sprintf("other-%d", i), "", inst(200+10*i, 1.0), opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := eng.Solve(ctx, "head", "", inst(400, 0.7), opt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxBuilds; i++ {
		if _, ok := eng.Lookup(fmt.Sprintf("other-%d", i)); !ok {
			t.Fatalf("other-%d: no exact hit", i)
		}
	}
	_, info, err := eng.Solve(ctx, "next", "head", inst(400, 0.8), opt)
	if err != nil {
		t.Fatal(err)
	}
	if info.Path == PathCold {
		t.Fatalf("successor dispatched %+v after exact hits: the chain head lost its build", info)
	}
}
