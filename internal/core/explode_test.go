package core

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
)

// TestOperationGranularityPartitioning exercises the paper's Section 3
// remark: "if it is desired to permit splitting of tasks across
// segments, then each operation in the specification may be modeled as
// a task... the entire formulation will work correctly."
func TestOperationGranularityPartitioning(t *testing.T) {
	// one big task whose ops need two FU kinds that cannot coexist on
	// the device: as a single task it is unsolvable, exploded it splits
	g := graph.New("big")
	t0 := g.AddTask("all")
	a := g.AddOp(t0, graph.OpAdd, "a")
	b := g.AddOp(t0, graph.OpAdd, "b")
	m1 := g.AddOp(t0, graph.OpMul, "m1")
	m2 := g.AddOp(t0, graph.OpMul, "m2")
	g.AddOpEdge(a, m1)
	g.AddOpEdge(b, m2)

	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// adder (16) or multiplier (96) alone fits, together (112) they do
	// not
	dev := library.Device{Name: "tiny", CapacityFG: 100, Alpha: 1.0, ScratchMem: 64}
	inst := Instance{Graph: g, Alloc: alloc, Device: dev}

	// task-granularity: the single task cannot fit any partition
	res, err := SolveInstance(inst, Options{N: 2, L: 2, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Fatal("monolithic task should be infeasible on the tiny device")
	}

	// op-granularity: explode and re-solve; adds go to segment 1,
	// muls to segment 2, paying 2 units of communication
	eg := explode(g, 1)
	if err := eg.Validate(); err != nil {
		t.Fatal(err)
	}
	einst := Instance{Graph: eg, Alloc: alloc, Device: dev}
	eres, err := SolveInstance(einst, Options{N: 2, L: 2, Tightened: true})
	if err != nil {
		t.Fatal(err)
	}
	if !eres.Feasible {
		t.Fatal("exploded graph should be feasible")
	}
	if eres.Solution.UsedPartitions() != 2 {
		t.Fatalf("used = %d, want 2", eres.Solution.UsedPartitions())
	}
	if eres.Solution.Comm != 2 {
		t.Fatalf("comm = %d, want 2 (one unit per add->mul edge)", eres.Solution.Comm)
	}
}

func TestExplode(t *testing.T) {
	g := graph.New("chain3")
	a := g.AddOp(g.AddTask("t0"), graph.OpAdd, "a")
	b := g.AddOp(g.AddTask("t1"), graph.OpMul, "b")
	c := g.AddOp(g.AddTask("t2"), graph.OpSub, "c")
	g.Connect(a, b, 4)
	g.Connect(b, c, 7)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	e := explode(g, 2)
	if e.NumTasks() != g.NumOps() {
		t.Fatalf("exploded tasks = %d, want %d", e.NumTasks(), g.NumOps())
	}
	if e.NumOps() != g.NumOps() {
		t.Fatalf("exploded ops = %d, want %d", e.NumOps(), g.NumOps())
	}
	if err := e.Validate(); err != nil {
		t.Fatalf("exploded Validate: %v", err)
	}
	// Every original op edge must be a task edge with bw 2.
	for _, oe := range g.OpEdges() {
		if bw := e.Bandwidth(oe.From, oe.To); bw != 2 {
			t.Errorf("exploded bandwidth %d->%d = %d, want 2", oe.From, oe.To, bw)
		}
	}
}

// explode returns a copy of g in which every operation has been
// promoted to its own single-operation task, the operation-granularity
// modeling of the paper's Section 3. Each op edge becomes a task edge
// of bandwidth bw.
func explode(g *graph.Graph, bw int) *graph.Graph {
	out := graph.New(g.Name + "/exploded")
	for _, op := range g.Ops() {
		out.AddOp(out.AddTask(fmt.Sprintf("op%d", op.ID)), op.Kind, op.Label)
	}
	for _, e := range g.OpEdges() {
		out.AddOpEdge(e.From, e.To)
		out.AddTaskEdge(e.From, e.To, bw)
	}
	return out
}
