package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	g := repro.NewGraph("kernel")
	t0 := g.AddTask("phase0")
	t1 := g.AddTask("phase1")
	a := g.AddOp(t0, repro.OpAdd, "a")
	m := g.AddOp(t1, repro.OpMul, "m")
	g.Connect(a, m, 4)

	alloc, err := repro.PaperAllocation(repro.DefaultLibrary(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Solve(
		repro.Instance{Graph: g, Alloc: alloc, Device: repro.XC4025()},
		repro.Options{N: 2, L: 1, Tightened: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || !res.Optimal {
		t.Fatalf("feasible=%v optimal=%v", res.Feasible, res.Optimal)
	}
	if res.Solution.Comm != 0 {
		t.Fatalf("comm = %d, want 0 on the roomy device", res.Solution.Comm)
	}
	rep := res.Solution.Report(g, alloc)
	if !strings.Contains(rep, "segment 1") {
		t.Fatalf("report: %s", rep)
	}
}

func TestFacadeParseAndEstimate(t *testing.T) {
	g, err := repro.ParseGraph(`
graph demo
task A
task B
op A a1 add
op B b1 mul
xdep a1 b1 3
`)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := repro.NewAllocation(repro.DefaultLibrary(), map[string]int{"add16": 1, "mul16": 1})
	if err != nil {
		t.Fatal(err)
	}
	n, err := repro.EstimateN(repro.Instance{Graph: g, Alloc: alloc, Device: repro.XC4010()})
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 {
		t.Fatalf("EstimateN = %d", n)
	}
}

func TestFacadeConstants(t *testing.T) {
	if repro.LinGlover == repro.LinFortet {
		t.Fatal("linearization constants collide")
	}
	if repro.BranchPaper == repro.BranchFirstFrac || repro.BranchFirstFrac == repro.BranchMostFrac {
		t.Fatal("branch constants collide")
	}
}

// TestFacadeSearchBranch sets a search knob through the facade: a
// caller outside the module reaches it as Options.Search without
// naming the internal type, and the branching rule changes the search
// path, not the optimum.
func TestFacadeSearchBranch(t *testing.T) {
	g := repro.NewGraph("branch")
	producer := g.AddTask("producer")
	consumer := g.AddTask("consumer")
	a := g.AddOp(producer, repro.OpAdd, "a")
	m := g.AddOp(consumer, repro.OpMul, "m")
	g.Connect(a, m, 3)
	alloc, err := repro.PaperAllocation(repro.DefaultLibrary(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// too small for adder and multiplier together: the split costs 3
	dev := repro.Device{Name: "tiny", CapacityFG: 100, Alpha: 1.0, ScratchMem: 16}
	inst := repro.Instance{Graph: g, Alloc: alloc, Device: dev}
	opt := repro.Options{N: 2, L: 1, Tightened: true, DisableProbe: true}
	paper, err := repro.Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Search.Branch = repro.BranchMostFrac
	most, err := repro.Solve(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !paper.Optimal || !most.Optimal || !paper.Feasible || !most.Feasible {
		t.Fatalf("paper rule feasible=%v optimal=%v, most-fractional feasible=%v optimal=%v",
			paper.Feasible, paper.Optimal, most.Feasible, most.Optimal)
	}
	if paper.Solution.Comm != 3 || most.Solution.Comm != paper.Solution.Comm {
		t.Fatalf("comm: paper rule %d, most-fractional %d, want 3 both",
			paper.Solution.Comm, most.Solution.Comm)
	}
}

// ExampleSolve demonstrates the minimal flow: build a two-task
// specification, pick an exploration set, optimize, and inspect.
func ExampleSolve() {
	g := repro.NewGraph("example")
	producer := g.AddTask("producer")
	consumer := g.AddTask("consumer")
	a := g.AddOp(producer, repro.OpAdd, "a")
	m := g.AddOp(consumer, repro.OpMul, "m")
	g.Connect(a, m, 3) // 3 data units cross a segment boundary

	alloc, _ := repro.PaperAllocation(repro.DefaultLibrary(), 1, 1, 0)
	// a device too small for adder + multiplier together forces a split
	dev := repro.Device{Name: "tiny", CapacityFG: 100, Alpha: 1.0, ScratchMem: 16}

	res, _ := repro.Solve(
		repro.Instance{Graph: g, Alloc: alloc, Device: dev},
		repro.Options{N: 2, L: 1, Tightened: true},
	)
	fmt.Printf("feasible=%v segments=%d comm=%d\n",
		res.Feasible, res.Solution.UsedPartitions(), res.Solution.Comm)
	// Output: feasible=true segments=2 comm=3
}

func TestFlowEndToEnd(t *testing.T) {
	g := repro.NewGraph("flow")
	t0 := g.AddTask("front")
	t1 := g.AddTask("back")
	a := g.AddOp(t0, repro.OpAdd, "a")
	b := g.AddOp(t0, repro.OpMul, "b")
	c := g.AddOp(t1, repro.OpMul, "c")
	g.AddOpEdge(a, b)
	g.Connect(b, c, 2)
	alloc, err := repro.PaperAllocation(repro.DefaultLibrary(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// device fits adder+multiplier together comfortably: 1 segment
	fr, err := repro.Flow(
		repro.Instance{Graph: g, Alloc: alloc, Device: repro.XC4025()},
		repro.FlowOptions{Options: repro.Options{L: 2}, Inputs: map[int]int64{0: 5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Feasible || !fr.Optimal {
		t.Fatalf("feasible=%v optimal=%v", fr.Feasible, fr.Optimal)
	}
	if fr.Timing.Segments < 1 || len(fr.Netlists) != fr.Solution.UsedPartitions() {
		t.Fatalf("segments=%d netlists=%d", fr.Timing.Segments, len(fr.Netlists))
	}
	if fr.Values == nil {
		t.Fatal("no simulated values")
	}
}

func TestFlowWidensN(t *testing.T) {
	// single task set that cannot fit one configuration at the
	// estimated N: the diffeq-style shape from the benchmarks
	g := repro.NewGraph("widen")
	t0 := g.AddTask("muls")
	t1 := g.AddTask("adds")
	var last int = -1
	for i := 0; i < 4; i++ {
		m := g.AddOp(t0, repro.OpMul, "")
		if last >= 0 {
			g.AddOpEdge(last, m)
		}
		last = m
	}
	a := g.AddOp(t1, repro.OpAdd, "")
	g.Connect(last, a, 1)
	alloc, err := repro.NewAllocation(repro.DefaultLibrary(), map[string]int{"mul16": 1, "add16": 1})
	if err != nil {
		t.Fatal(err)
	}
	// device fits only one FU kind at a time -> needs 2 segments even
	// though the kind-estimate may say 2 already; exercise the loop
	dev := repro.Device{Name: "tiny", CapacityFG: 100, Alpha: 1.0, ScratchMem: 16}
	fr, err := repro.Flow(repro.Instance{Graph: g, Alloc: alloc, Device: dev},
		repro.FlowOptions{Options: repro.Options{L: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if fr.Solution.UsedPartitions() < 2 {
		t.Fatalf("used = %d, want >= 2", fr.Solution.UsedPartitions())
	}
}
