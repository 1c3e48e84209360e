package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/lp"
	"repro/internal/oracle"
	"repro/internal/randgraph"
)

func smallAlloc(t *testing.T) *library.Allocation {
	t.Helper()
	a, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestOracleCrossCheck certifies the whole pipeline: on tiny random
// instances, every (linearization x tightening x w-mode) combination
// must agree with the exhaustive oracle on feasibility AND the optimal
// communication cost.
func TestOracleCrossCheck(t *testing.T) {
	alloc := smallAlloc(t)
	caps := []int{120, 160, 400}
	mems := []int{3, 8, 64}
	combos := []Options{
		{Linearization: LinGlover, Tightened: true},
		{Linearization: LinGlover, Tightened: false},
		{Linearization: LinGlover, Tightened: false, WPerProduct: true},
		{Linearization: LinGlover, Tightened: true, WPerProduct: true},
		{Linearization: LinFortet, Tightened: true},
		{Linearization: LinFortet, Tightened: false, WPerProduct: true},
	}
	checked := 0
	for seed := int64(1); seed <= 25; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		dev := library.Device{
			Name:       "t",
			CapacityFG: caps[int(seed)%len(caps)],
			Alpha:      1.0,
			ScratchMem: mems[int(seed/3)%len(mems)],
		}
		N := 2 + int(seed)%2
		L := int(seed) % 2
		want, err := oracle.Solve(g, alloc, dev, N, L)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for ci, opt := range combos {
			opt.N, opt.L = N, L
			res, err := SolveInstance(Instance{Graph: g, Alloc: alloc, Device: dev}, opt)
			if err != nil {
				t.Fatalf("seed %d combo %d: %v", seed, ci, err)
			}
			if res.Feasible != want.Feasible {
				t.Fatalf("seed %d combo %d (N=%d L=%d): feasible=%v, oracle=%v",
					seed, ci, N, L, res.Feasible, want.Feasible)
			}
			if res.Feasible && res.Solution.Comm != want.Comm {
				t.Fatalf("seed %d combo %d (N=%d L=%d): comm=%d, oracle=%d\n%s",
					seed, ci, N, L, res.Solution.Comm, want.Comm, res.Solution.Report(g, alloc))
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no instances checked")
	}
}

// TestBranchRulesAgree: all three branching rules find the same optimum.
func TestBranchRulesAgree(t *testing.T) {
	alloc := smallAlloc(t)
	dev := library.Device{Name: "t", CapacityFG: 130, Alpha: 1.0, ScratchMem: 64}
	for seed := int64(1); seed <= 8; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		inst := Instance{Graph: g, Alloc: alloc, Device: dev}
		var comm [3]int
		var feas [3]bool
		for bi, rule := range []BranchRule{BranchPaper, BranchFirstFrac, BranchMostFrac} {
			res, err := SolveInstance(inst, Options{N: 2, L: 1, Tightened: true, Search: SearchOptions{Branch: rule}})
			if err != nil {
				t.Fatalf("seed %d rule %v: %v", seed, rule, err)
			}
			feas[bi] = res.Feasible
			if res.Feasible {
				comm[bi] = res.Solution.Comm
			}
		}
		if feas[0] != feas[1] || feas[1] != feas[2] {
			t.Fatalf("seed %d: feasibility disagrees: %v", seed, feas)
		}
		if feas[0] && (comm[0] != comm[1] || comm[1] != comm[2]) {
			t.Fatalf("seed %d: optima disagree: %v", seed, comm)
		}
	}
}

// figure3Instance builds the paper's Figure 3 shape: three tasks in a
// chain with an extra skip edge, forced onto three partitions by
// device capacity.
func figure3Instance(t *testing.T) (Instance, int, int, int) {
	t.Helper()
	g := graph.New("fig3")
	t0 := g.AddTask("t1")
	t1 := g.AddTask("t2")
	t2 := g.AddTask("t3")
	a := g.AddOp(t0, graph.OpMul, "")
	b := g.AddOp(t1, graph.OpMul, "")
	c := g.AddOp(t2, graph.OpMul, "")
	bwAB, bwBC, bwAC := 4, 6, 2
	g.Connect(a, b, bwAB)
	g.Connect(b, c, bwBC)
	g.Connect(a, c, bwAC)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// the mapping t1->p1, t2->p2, t3->p3 is pinned in the test; the
	// device only needs to make that mapping feasible
	return Instance{Graph: g, Alloc: alloc, Device: library.Device{
		Name: "fig3", CapacityFG: 96, Alpha: 1.0, ScratchMem: 64,
	}}, bwAB, bwBC, bwAC
}

// TestFigure3Semantics reproduces Figure 3: with tasks t1,t2,t3 mapped
// to partitions 1,2,3, boundary 2 stores bw(1,2)+bw(1,3) and boundary
// 3 stores bw(2,3)+bw(1,3); the objective charges bw(1,3) twice.
func TestFigure3Semantics(t *testing.T) {
	inst, bwAB, bwBC, bwAC := figure3Instance(t)
	m, err := Build(inst, Options{N: 3, L: 0, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	// pin the Figure 3 mapping y[t0]=1, y[t1]=2, y[t2]=3
	for tk, p := range map[int]int{0: 1, 1: 2, 2: 3} {
		if err := m.P.AddEQ(lp.Name(fmt.Sprintf("pin%d", tk)), []int{m.Y[[2]int{tk, p}]}, []float64{1}, 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("pinned Figure 3 mapping infeasible")
	}
	s := res.Solution
	if got := s.MemoryAt(inst.Graph, 2); got != bwAB+bwAC {
		t.Errorf("memory at boundary 2 = %d, want %d", got, bwAB+bwAC)
	}
	if got := s.MemoryAt(inst.Graph, 3); got != bwBC+bwAC {
		t.Errorf("memory at boundary 3 = %d, want %d", got, bwBC+bwAC)
	}
	if want := bwAB + bwBC + 2*bwAC; s.Comm != want {
		t.Errorf("comm = %d, want %d", s.Comm, want)
	}
}

// pinAndProbe builds the 2-task/4-partition Figure 4 model, pins task
// placements, requires w[3] = 1 and reports LP feasibility.
func pinAndProbe(t *testing.T, tightened bool, p1, p2 int) lp.Status {
	t.Helper()
	g := graph.New("fig4")
	t0 := g.AddTask("t1")
	t1 := g.AddTask("t2")
	a := g.AddOp(t0, graph.OpAdd, "")
	b := g.AddOp(t1, graph.OpAdd, "")
	g.Connect(a, b, 1)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Graph: g, Alloc: alloc, Device: library.Device{
		Name: "fig4", CapacityFG: 400, Alpha: 1.0, ScratchMem: 64,
	}}
	m, err := Build(inst, Options{N: 4, L: 4, Tightened: tightened})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.P.AddEQ(lp.Name("pin1"), []int{m.Y[[2]int{0, p1}]}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.P.AddEQ(lp.Name("pin2"), []int{m.Y[[2]int{1, p2}]}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	// probe: force w[3,0->1] = 1 and ask the LP if that is possible
	if err := m.P.AddEQ(lp.Name("probe"), []int{m.W[[3]int{3, 0, 1}]}, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	s, err := lp.NewSolver(m.P)
	if err != nil {
		t.Fatal(err)
	}
	return s.Solve()
}

// TestFigure4Cutoffs reproduces Figure 4: without tightening the
// compact w linearization admits spurious w=1 for placements whose
// products are all 0; the cuts (28)-(30) eliminate each case.
func TestFigure4Cutoffs(t *testing.T) {
	cases := []struct{ p1, p2 int }{
		{1, 2}, // cut by (29): t2 before boundary 3
		{3, 4}, // cut by (28): t1 at/after boundary 3
		{2, 2}, // cut by (30): same partition
	}
	for _, c := range cases {
		if st := pinAndProbe(t, false, c.p1, c.p2); st != lp.StatusOptimal {
			t.Errorf("untightened t1@%d t2@%d: w=1 should be LP-feasible, got %v", c.p1, c.p2, st)
		}
		if st := pinAndProbe(t, true, c.p1, c.p2); st != lp.StatusInfeasible {
			t.Errorf("tightened t1@%d t2@%d: w=1 should be cut off, got %v", c.p1, c.p2, st)
		}
	}
	// sanity: a genuinely crossing placement keeps w=1 feasible even
	// when tightened
	if st := pinAndProbe(t, true, 2, 3); st != lp.StatusOptimal {
		t.Errorf("t1@2 t2@3: w=1 must remain feasible, got %v", st)
	}
}

func TestBuildValidation(t *testing.T) {
	alloc := smallAlloc(t)
	g := graph.New("v")
	tk := g.AddTask("t")
	g.AddOp(tk, graph.OpAdd, "")
	inst := Instance{Graph: g, Alloc: alloc, Device: library.XC4010()}
	if _, err := Build(inst, Options{N: -1}); err == nil {
		t.Error("negative N accepted")
	}
	if _, err := Build(inst, Options{N: 1, L: -1}); err == nil {
		t.Error("negative L accepted")
	}
	if _, err := Build(Instance{Graph: g, Alloc: nil, Device: library.XC4010()}, Options{N: 1}); err == nil {
		t.Error("nil alloc accepted")
	}
	bad := Instance{Graph: g, Alloc: alloc, Device: library.Device{Name: "x", CapacityFG: 0, Alpha: 0.5}}
	if _, err := Build(bad, Options{N: 1}); err == nil {
		t.Error("bad device accepted")
	}
}

func TestBuildEstimatesN(t *testing.T) {
	inst := smokeInstance(t)
	m, err := Build(inst, Options{L: 1, Tightened: true}) // N = 0 -> estimate
	if err != nil {
		t.Fatal(err)
	}
	if m.N < 1 {
		t.Fatalf("estimated N = %d", m.N)
	}
	n, err := EstimateN(inst)
	if err != nil {
		t.Fatal(err)
	}
	if n != m.N {
		t.Fatalf("EstimateN = %d, Build used %d", n, m.N)
	}
}

func TestModelDeterminism(t *testing.T) {
	inst := smokeInstance(t)
	opt := Options{N: 3, L: 1, Tightened: true}
	m1, err := Build(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Stats() != m2.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", m1.Stats(), m2.Stats())
	}
	for i := 0; i < m1.P.NumVars(); i++ {
		if m1.P.VarName(i) != m2.P.VarName(i) {
			t.Fatalf("var %d name %q vs %q", i, m1.P.VarName(i), m2.P.VarName(i))
		}
	}
	for i := 0; i < m1.P.NumRows(); i++ {
		if m1.P.RowName(i) != m2.P.RowName(i) {
			t.Fatalf("row %d name %q vs %q", i, m1.P.RowName(i), m2.P.RowName(i))
		}
	}
}

func TestTightenedModelHasMoreRows(t *testing.T) {
	inst := smokeInstance(t)
	base, err := Build(inst, Options{N: 3, L: 1, Tightened: false})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Build(inst, Options{N: 3, L: 1, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Stats().Rows <= base.Stats().Rows {
		t.Fatalf("tightened rows %d <= base rows %d", tight.Stats().Rows, base.Stats().Rows)
	}
	if tight.Stats().Vars != base.Stats().Vars {
		t.Fatalf("tightening changed variable count: %d vs %d", tight.Stats().Vars, base.Stats().Vars)
	}
}

func TestInfeasibleByLatency(t *testing.T) {
	// N=2 with L=0: a 2-task chain cannot split across 2 partitions
	// without extra steps (3 ops in a chain, CP=3, splitting needs
	// step-disjoint partitions but CP already uses all steps). It CAN
	// stay in one partition, so force a split with a tiny device.
	g := graph.New("inf")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, graph.OpAdd, "")
	b := g.AddOp(t1, graph.OpMul, "")
	g.Connect(a, b, 2)
	alloc := smallAlloc(t)
	dev := library.Device{Name: "tiny", CapacityFG: 96, Alpha: 1.0, ScratchMem: 64}
	inst := Instance{Graph: g, Alloc: alloc, Device: dev}
	// add16+mul16 = 112 > 96, so tasks must split; CP=2 and the split
	// schedule also needs just 2 steps, so L=0 is feasible here.
	res, err := SolveInstance(inst, Options{N: 2, L: 0, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible split")
	}
	if res.Solution.Comm != 2 {
		t.Fatalf("comm = %d, want 2", res.Solution.Comm)
	}
	// but with N=1 the device cannot hold both FUs: infeasible
	res, err = SolveInstance(inst, Options{N: 1, L: 2, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("N=1 should be infeasible on the tiny device")
	}
}

func TestNodeLimitNeverOverclaims(t *testing.T) {
	// With a node limit the solver may finish (root integral thanks to
	// completion) or stop early; it must never claim optimality after
	// stopping without an incumbent.
	g := randgraph.MustPaper(1)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Graph: g, Alloc: alloc, Device: library.XC4025()}
	res, err := SolveInstance(inst, Options{N: 3, L: 1, Tightened: true, MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal && !res.Feasible && res.Nodes > 1 {
		t.Fatal("optimal claimed after truncated infeasible search")
	}
	if res.Feasible && res.Solution == nil {
		t.Fatal("feasible without solution")
	}
}
