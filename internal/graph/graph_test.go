package graph

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// chain3 builds t0 -> t1 -> t2 with one op each and bandwidths 4, 7.
func chain3(t *testing.T) *Graph {
	t.Helper()
	g := New("chain3")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	t2 := g.AddTask("t2")
	a := g.AddOp(t0, OpAdd, "a")
	b := g.AddOp(t1, OpMul, "b")
	c := g.AddOp(t2, OpSub, "c")
	g.Connect(a, b, 4)
	g.Connect(b, c, 7)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestAddAndQuery(t *testing.T) {
	g := chain3(t)
	if g.NumTasks() != 3 || g.NumOps() != 3 {
		t.Fatalf("got %d tasks %d ops, want 3/3", g.NumTasks(), g.NumOps())
	}
	if bw := g.Bandwidth(0, 1); bw != 4 {
		t.Errorf("Bandwidth(0,1) = %d, want 4", bw)
	}
	if bw := g.Bandwidth(1, 0); bw != 0 {
		t.Errorf("Bandwidth(1,0) = %d, want 0", bw)
	}
	if got := g.TaskPred(2); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("TaskPred(2) = %v", got)
	}
	if got := g.OpSucc(0); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("OpSucc(0) = %v", got)
	}
}

func TestBandwidthAccumulates(t *testing.T) {
	g := New("acc")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, OpAdd, "")
	b := g.AddOp(t0, OpAdd, "")
	c := g.AddOp(t1, OpMul, "")
	g.Connect(a, c, 2)
	g.Connect(b, c, 3)
	if bw := g.Bandwidth(t0, t1); bw != 5 {
		t.Fatalf("accumulated bandwidth = %d, want 5", bw)
	}
	if n := len(g.TaskEdges()); n != 1 {
		t.Fatalf("task edges = %d, want 1 (merged)", n)
	}
}

func TestTopoTasks(t *testing.T) {
	g := chain3(t)
	order, err := g.TopoTasks()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("topo = %v", order)
	}
}

func TestTopoDetectsCycle(t *testing.T) {
	g := New("cyc")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	g.AddTaskEdge(t0, t1, 1)
	g.AddTaskEdge(t1, t0, 1)
	if _, err := g.TopoTasks(); err == nil {
		t.Fatal("expected cycle error")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject cyclic task graph")
	}
}

func TestOpCycleDetected(t *testing.T) {
	g := New("opcyc")
	t0 := g.AddTask("t0")
	a := g.AddOp(t0, OpAdd, "")
	b := g.AddOp(t0, OpAdd, "")
	g.AddOpEdge(a, b)
	g.AddOpEdge(b, a)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject cyclic op graph")
	}
}

func TestValidateCrossTaskNeedsTaskEdge(t *testing.T) {
	g := New("x")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, OpAdd, "")
	b := g.AddOp(t1, OpAdd, "")
	g.AddOpEdge(a, b) // no task edge recorded
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should flag cross-task op edge without task edge")
	}
}

func TestValidateRejectsSelfLoop(t *testing.T) {
	g := New("s")
	t0 := g.AddTask("t0")
	g.AddTaskEdge(t0, t0, 1)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject self loop")
	}
}

func TestOpKindsAndCounts(t *testing.T) {
	g := chain3(t)
	kinds := g.OpKinds()
	want := []OpKind{OpAdd, OpMul, OpSub}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	c := g.CountKinds()
	if c[OpAdd] != 1 || c[OpMul] != 1 || c[OpSub] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

const sampleSpec = `
# sample
graph demo
task A
task B
op A a1 add
op A a2 mul
op B b1 sub
dep a1 a2
xdep a2 b1 5
`

func TestParse(t *testing.T) {
	g, err := ParseString(sampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "demo" || g.NumTasks() != 2 || g.NumOps() != 3 {
		t.Fatalf("parsed %s: %d tasks %d ops", g.Name, g.NumTasks(), g.NumOps())
	}
	if bw := g.Bandwidth(0, 1); bw != 5 {
		t.Fatalf("bandwidth = %d, want 5", bw)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"task",                           // missing name
		"task A\ntask A",                 // duplicate task
		"op X a add",                     // unknown task
		"task A\nop A a add\nop A a add", // duplicate op
		"task A\nop A a add\ndep a b",    // unknown op
		"task A\ntask B\nop A a add\nop B b add\ndep a b",     // cross-task dep
		"task A\ntask B\nop A a add\nop B b add\nxdep a b -1", // negative bw
		"bogus directive",
		"tedge A B 1", // unknown tasks
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q): expected error", c)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g := chain3(t)
	text := g.String()
	g2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if g2.NumTasks() != g.NumTasks() || g2.NumOps() != g.NumOps() {
		t.Fatalf("round trip size mismatch")
	}
	for _, e := range g.TaskEdges() {
		if got := g2.Bandwidth(e.From, e.To); got != e.Bandwidth {
			t.Errorf("round trip bandwidth %d->%d = %d, want %d", e.From, e.To, got, e.Bandwidth)
		}
	}
}

func TestDOT(t *testing.T) {
	g := chain3(t)
	dot := g.DOT()
	for _, want := range []string{"digraph", "cluster_t0", "o0 -> o1", "bw=4"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

// randomDAG builds a random layered DAG for property tests.
func randomDAG(r *rand.Rand) *Graph {
	g := New("rand")
	nt := 1 + r.Intn(6)
	kinds := []OpKind{OpAdd, OpSub, OpMul}
	var ops []int
	for t := 0; t < nt; t++ {
		g.AddTask("")
		nops := 1 + r.Intn(4)
		for j := 0; j < nops; j++ {
			ops = append(ops, g.AddOp(t, kinds[r.Intn(len(kinds))], ""))
		}
	}
	// edges only from lower op id to higher, and only lower task to
	// higher task, keeping both graphs acyclic.
	for i := 0; i < len(ops); i++ {
		for j := i + 1; j < len(ops); j++ {
			if g.Op(ops[i]).Task > g.Op(ops[j]).Task {
				continue
			}
			if r.Intn(4) == 0 {
				g.Connect(ops[i], ops[j], 1+r.Intn(3))
			}
		}
	}
	return g
}

func TestPropertyTopoRespectsEdges(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)))
		if err := g.Validate(); err != nil {
			return false
		}
		order, err := g.TopoOps()
		if err != nil {
			return false
		}
		pos := make([]int, g.NumOps())
		for i, v := range order {
			pos[v] = i
		}
		for _, e := range g.OpEdges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		torder, err := g.TopoTasks()
		if err != nil {
			return false
		}
		tpos := make([]int, g.NumTasks())
		for i, v := range torder {
			tpos[v] = i
		}
		for _, e := range g.TaskEdges() {
			if tpos[e.From] >= tpos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomDAG(rand.New(rand.NewSource(seed)))
		g2, err := ParseString(g.String())
		if err != nil {
			return false
		}
		if g2.NumTasks() != g.NumTasks() || g2.NumOps() != g.NumOps() {
			return false
		}
		for _, e := range g.TaskEdges() {
			if g2.Bandwidth(e.From, e.To) != e.Bandwidth {
				return false
			}
		}
		return len(g2.OpEdges()) == len(g.OpEdges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestOpEdgeWeights(t *testing.T) {
	g := New("w")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, OpAdd, "")
	b := g.AddOp(t0, OpAdd, "")
	c := g.AddOp(t1, OpMul, "")
	g.AddOpEdge(a, b) // weight 1 by default
	g.Connect(b, c, 7)
	edges := g.OpEdges()
	if edges[0].Weight != 1 {
		t.Errorf("AddOpEdge weight = %d, want 1", edges[0].Weight)
	}
	if edges[1].Weight != 7 {
		t.Errorf("Connect weight = %d, want 7", edges[1].Weight)
	}
	if g.Bandwidth(t0, t1) != 7 {
		t.Errorf("task bandwidth = %d, want 7", g.Bandwidth(t0, t1))
	}
	// round trip preserves weights of cross-task edges
	g2, err := ParseString(g.String())
	if err != nil {
		t.Fatal(err)
	}
	var cross *OpEdge
	for i := range g2.OpEdges() {
		e := g2.OpEdges()[i]
		if g2.Op(e.From).Task != g2.Op(e.To).Task {
			cross = &e
		}
	}
	if cross == nil || cross.Weight != 7 {
		t.Fatalf("round-trip cross edge = %+v, want weight 7", cross)
	}
}
