package sched

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/randgraph"
)

// diamond builds one task with ops a -> b, a -> c, b -> d, c -> d.
func diamond(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	g := graph.New("diamond")
	tk := g.AddTask("t")
	a := g.AddOp(tk, graph.OpAdd, "a")
	b := g.AddOp(tk, graph.OpMul, "b")
	c := g.AddOp(tk, graph.OpAdd, "c")
	d := g.AddOp(tk, graph.OpSub, "d")
	g.AddOpEdge(a, b)
	g.AddOpEdge(a, c)
	g.AddOpEdge(b, d)
	g.AddOpEdge(c, d)
	return g, []int{a, b, c, d}
}

func TestWindowsDiamond(t *testing.T) {
	g, ops := diamond(t)
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := ops[0], ops[1], ops[2], ops[3]
	if w.CriticalPath != 3 {
		t.Fatalf("CP = %d, want 3", w.CriticalPath)
	}
	wantASAP := map[int]int{a: 1, b: 2, c: 2, d: 3}
	wantALAP := map[int]int{a: 1, b: 2, c: 2, d: 3}
	for o, want := range wantASAP {
		if w.ASAP[o] != want {
			t.Errorf("ASAP[%d] = %d, want %d", o, w.ASAP[o], want)
		}
	}
	for o, want := range wantALAP {
		if w.ALAP[o] != want {
			t.Errorf("ALAP[%d] = %d, want %d", o, w.ALAP[o], want)
		}
	}
}

func TestWindowsSlack(t *testing.T) {
	// chain a->b plus independent e: e has slack CP-1.
	g := graph.New("slack")
	tk := g.AddTask("t")
	a := g.AddOp(tk, graph.OpAdd, "")
	b := g.AddOp(tk, graph.OpAdd, "")
	e := g.AddOp(tk, graph.OpAdd, "")
	g.AddOpEdge(a, b)
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.ASAP[e] != 1 || w.ALAP[e] != 2 {
		t.Fatalf("window(e) = [%d,%d], want [1,2]", w.ASAP[e], w.ALAP[e])
	}
	if got := w.Steps(e, 1); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("Steps(e,1) = %v", got)
	}
	if w.MaxStep(2) != 4 {
		t.Fatalf("MaxStep(2) = %d", w.MaxStep(2))
	}
}

func TestWindowsMulticycle(t *testing.T) {
	g := graph.New("mc")
	tk := g.AddTask("t")
	a := g.AddOp(tk, graph.OpMul, "")
	b := g.AddOp(tk, graph.OpAdd, "")
	g.AddOpEdge(a, b)
	dur := func(o int) int {
		if o == a {
			return 2
		}
		return 1
	}
	w, err := ComputeWindows(g, dur)
	if err != nil {
		t.Fatal(err)
	}
	if w.CriticalPath != 3 {
		t.Fatalf("CP = %d, want 3 (2-cycle mul + add)", w.CriticalPath)
	}
	if w.ASAP[b] != 3 {
		t.Fatalf("ASAP[b] = %d, want 3", w.ASAP[b])
	}
	if w.ALAP[a] != 1 {
		t.Fatalf("ALAP[a] = %d, want 1", w.ALAP[a])
	}
}

func TestWindowsErrors(t *testing.T) {
	g, _ := diamond(t)
	if _, err := ComputeWindows(g, func(int) int { return 0 }); err == nil {
		t.Error("zero duration accepted")
	}
	cyc := graph.New("c")
	tk := cyc.AddTask("t")
	a := cyc.AddOp(tk, graph.OpAdd, "")
	b := cyc.AddOp(tk, graph.OpAdd, "")
	cyc.AddOpEdge(a, b)
	cyc.AddOpEdge(b, a)
	if _, err := ComputeWindows(cyc, nil); err == nil {
		t.Error("cycle accepted")
	}
}

func allocAMS(t *testing.T, a, m, s int) *library.Allocation {
	t.Helper()
	al, err := library.PaperAllocation(library.DefaultLibrary(), a, m, s)
	if err != nil {
		t.Fatal(err)
	}
	return al
}

func TestListScheduleRespectsResourceLimit(t *testing.T) {
	// 4 independent adds on 2 adders -> 2 steps.
	g := graph.New("par")
	tk := g.AddTask("t")
	var ops []int
	for i := 0; i < 4; i++ {
		ops = append(ops, g.AddOp(tk, graph.OpAdd, ""))
	}
	w, _ := ComputeWindows(g, nil)
	alloc := allocAMS(t, 2, 0, 0)
	a, err := ListSchedule(g, alloc, w, ops, []int{0, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != 2 {
		t.Fatalf("span = %d, want 2", a.Span)
	}
	// no two ops share (step, unit)
	seen := map[[2]int]bool{}
	for _, o := range ops {
		key := [2]int{a.Step[o], a.Unit[o]}
		if seen[key] {
			t.Fatalf("double booking at %v", key)
		}
		seen[key] = true
	}
}

func TestListScheduleRespectsDependencies(t *testing.T) {
	g, ops := diamond(t)
	w, _ := ComputeWindows(g, nil)
	alloc := allocAMS(t, 2, 1, 1)
	a, err := ListSchedule(g, alloc, w, ops, []int{0, 1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.OpEdges() {
		if a.Step[e.From] >= a.Step[e.To] {
			t.Errorf("dependency %d->%d violated: steps %d,%d", e.From, e.To, a.Step[e.From], a.Step[e.To])
		}
	}
	if a.Span != 3 {
		t.Fatalf("span = %d, want 3", a.Span)
	}
}

func TestListScheduleNoCompatibleUnit(t *testing.T) {
	g := graph.New("x")
	tk := g.AddTask("t")
	o := g.AddOp(tk, graph.OpDiv, "")
	w, _ := ComputeWindows(g, nil)
	alloc := allocAMS(t, 1, 0, 0)
	if _, err := ListSchedule(g, alloc, w, []int{o}, []int{0}, nil); err == nil {
		t.Fatal("expected error for div with only adders")
	}
}

func TestListScheduleMulticycleBlocking(t *testing.T) {
	// two muls on one 2-cycle non-pipelined multiplier -> span 4.
	lib := library.DefaultLibrary()
	alloc, err := library.NewAllocation(lib, map[string]int{"mul16x2": 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("mc")
	tk := g.AddTask("t")
	m1 := g.AddOp(tk, graph.OpMul, "")
	m2 := g.AddOp(tk, graph.OpMul, "")
	w, _ := ComputeWindows(g, func(int) int { return 2 })
	a, err := ListSchedule(g, alloc, w, []int{m1, m2}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != 4 {
		t.Fatalf("span = %d, want 4 (blocking multiplier)", a.Span)
	}
}

func TestListSchedulePipelinedOverlap(t *testing.T) {
	// two muls on one 2-stage pipelined multiplier -> span 3.
	lib := library.DefaultLibrary()
	alloc, err := library.NewAllocation(lib, map[string]int{"mul16p": 1})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("pipe")
	tk := g.AddTask("t")
	m1 := g.AddOp(tk, graph.OpMul, "")
	m2 := g.AddOp(tk, graph.OpMul, "")
	w, _ := ComputeWindows(g, func(int) int { return 2 })
	a, err := ListSchedule(g, alloc, w, []int{m1, m2}, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Span != 3 {
		t.Fatalf("span = %d, want 3 (pipelined issue)", a.Span)
	}
}

// twoHeavyTasks builds two tasks each needing a multiplier, where two
// multipliers do not fit the device together with anything else.
func twoHeavyTasks(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("heavy")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, graph.OpMul, "")
	b := g.AddOp(t1, graph.OpMul, "")
	g.Connect(a, b, 8)
	return g
}

func TestEstimateSegmentsSplits(t *testing.T) {
	g := twoHeavyTasks(t)
	alloc := allocAMS(t, 0, 2, 0)
	dev := library.Device{Name: "tiny", CapacityFG: 70, Alpha: 0.7, ScratchMem: 64}
	// one mul16 = 96 FG, 0.7*96 = 67.2 <= 70 fits; two tasks need only
	// one mul each (same kind) so they could share -> fits in one seg.
	plan, err := EstimateSegments(g, alloc, dev)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 1 {
		t.Fatalf("N = %d, want 1 (kinds shared)", plan.N)
	}
}

func TestEstimateSegmentsCapacityError(t *testing.T) {
	g := twoHeavyTasks(t)
	alloc := allocAMS(t, 0, 2, 0)
	dev := library.Device{Name: "nano", CapacityFG: 10, Alpha: 1.0, ScratchMem: 64}
	if _, err := EstimateSegments(g, alloc, dev); err == nil {
		t.Fatal("expected capacity error")
	}
}

func TestEstimateSegmentsMultiKind(t *testing.T) {
	// task0 uses add, task1 uses mul; device fits only one kind at a
	// time -> 2 segments.
	g := graph.New("mk")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, graph.OpAdd, "")
	b := g.AddOp(t1, graph.OpMul, "")
	g.Connect(a, b, 3)
	alloc := allocAMS(t, 1, 1, 0)
	dev := library.Device{Name: "tiny", CapacityFG: 96, Alpha: 1.0, ScratchMem: 64}
	plan, err := EstimateSegments(g, alloc, dev)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 2 {
		t.Fatalf("N = %d, want 2", plan.N)
	}
	if plan.Comm != 3 {
		t.Fatalf("Comm = %d, want 3", plan.Comm)
	}
}

func TestCommCostMultiBoundary(t *testing.T) {
	g := graph.New("cc")
	t0 := g.AddTask("")
	t1 := g.AddTask("")
	t2 := g.AddTask("")
	a := g.AddOp(t0, graph.OpAdd, "")
	g.AddOp(t1, graph.OpAdd, "")
	c := g.AddOp(t2, graph.OpAdd, "")
	g.Connect(a, c, 5)
	// t0 in seg 1, t2 in seg 3: the edge is live across boundaries 2
	// and 3 -> cost 10.
	if got := CommCost(g, []int{1, 2, 3}); got != 10 {
		t.Fatalf("CommCost = %d, want 10", got)
	}
	if m := MemoryAt(g, []int{1, 2, 3}, 2); m != 5 {
		t.Fatalf("MemoryAt(2) = %d, want 5", m)
	}
	if m := MemoryAt(g, []int{1, 2, 3}, 3); m != 5 {
		t.Fatalf("MemoryAt(3) = %d, want 5", m)
	}
}

func TestHeuristicSchedule(t *testing.T) {
	g := graph.New("hs")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, graph.OpAdd, "")
	b := g.AddOp(t0, graph.OpMul, "")
	c := g.AddOp(t1, graph.OpSub, "")
	g.AddOpEdge(a, b)
	g.Connect(b, c, 2)
	alloc := allocAMS(t, 1, 1, 1)
	dev := library.XC4025()
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := EstimateSegments(g, alloc, dev)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := HeuristicSchedule(g, alloc, dev, w, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range g.OpEdges() {
		if asg.Step[e.From] >= asg.Step[e.To] {
			t.Errorf("dep %d->%d violated", e.From, e.To)
		}
	}
	if asg.Span < 3 {
		t.Fatalf("span = %d, want >= 3", asg.Span)
	}
}

func TestPropertyListScheduleValid(t *testing.T) {
	lib := library.DefaultLibrary()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New("p")
		tk := g.AddTask("t")
		n := 2 + r.Intn(8)
		kinds := []graph.OpKind{graph.OpAdd, graph.OpSub, graph.OpMul}
		var ops []int
		for i := 0; i < n; i++ {
			ops = append(ops, g.AddOp(tk, kinds[r.Intn(3)], ""))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Intn(3) == 0 {
					g.AddOpEdge(ops[i], ops[j])
				}
			}
		}
		alloc, err := library.PaperAllocation(lib, 1+r.Intn(2), 1+r.Intn(2), 1)
		if err != nil {
			return false
		}
		w, err := ComputeWindows(g, nil)
		if err != nil {
			return false
		}
		units := make([]int, alloc.NumUnits())
		for i := range units {
			units[i] = i
		}
		a, err := ListSchedule(g, alloc, w, ops, units, nil)
		if err != nil {
			return false
		}
		// invariants: all scheduled, deps respected, no double booking,
		// op on compatible unit, span >= critical path
		booked := map[[2]int]bool{}
		for _, o := range ops {
			if a.Step[o] < 1 || a.Unit[o] < 0 {
				return false
			}
			if !alloc.Unit(a.Unit[o]).Type.CanExecute(g.Op(o).Kind) {
				return false
			}
			key := [2]int{a.Step[o], a.Unit[o]}
			if booked[key] {
				return false
			}
			booked[key] = true
		}
		for _, e := range g.OpEdges() {
			if a.Step[e.From] >= a.Step[e.To] {
				return false
			}
		}
		return a.Span >= w.CriticalPath
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestHeuristicScheduleSteadyStateAllocs pins the caller-owned tables
// of the list scheduler: on the plan of paper row T4 g5 N3 L0 (graph 5
// with two adders, two multipliers and two subtracters on the XC4010,
// its tasks split into three segments in topological order), a
// HeuristicSchedule call through a warm ListScratch allocates nothing,
// and it schedules exactly as a call with fresh tables does.
func TestHeuristicScheduleSteadyStateAllocs(t *testing.T) {
	g := randgraph.MustPaper(5)
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	dev := library.XC4010()
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoTasks()
	if err != nil {
		t.Fatal(err)
	}
	plan := &SegmentPlan{Segment: make([]int, g.NumTasks()), N: 3}
	for r, task := range order {
		plan.Segment[task] = 1 + r*plan.N/len(order)
	}
	cold, err := HeuristicSchedule(g, alloc, dev, w, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	coldSteps := append([]int(nil), plan.Steps...)
	var sc ListScratch
	warm, err := HeuristicSchedule(g, alloc, dev, w, plan, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) || !reflect.DeepEqual(plan.Steps, coldSteps) {
		t.Fatalf("scratch schedule %+v %v, fresh %+v %v", warm, plan.Steps, cold, coldSteps)
	}
	if a := testing.AllocsPerRun(100, func() {
		_, _ = HeuristicSchedule(g, alloc, dev, w, plan, &sc)
	}); a != 0 {
		t.Fatalf("a warm HeuristicSchedule allocates %.0f times, want 0", a)
	}
}
