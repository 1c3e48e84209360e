package sched

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/randgraph"
)

// baseline runs Baseline under a live context with no leaf cap.
func baseline(t *testing.T, g *graph.Graph, alloc *library.Allocation, dev library.Device, n, l int) (*SegmentPlan, *Assignment) {
	t.Helper()
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, asg, err := Baseline(context.Background(), g, alloc, dev, w, n, l, 0)
	if err != nil {
		t.Fatal(err)
	}
	return plan, asg
}

// orderValid lists every assignment of g's tasks to segments 1..n that
// keeps each task edge pointing forward, in lexicographic order of the
// segments by task ID.
func orderValid(g *graph.Graph, n int) [][]int {
	var out [][]int
	assign := make([]int, g.NumTasks())
	var rec func(t int)
	rec = func(t int) {
		if t == len(assign) {
			for _, e := range g.TaskEdges() {
				if assign[e.From] > assign[e.To] {
					return
				}
			}
			out = append(out, slices.Clone(assign))
			return
		}
		for p := 1; p <= n; p++ {
			assign[t] = p
			rec(t + 1)
		}
	}
	rec(0)
	return out
}

// The walk visits every order-valid assignment exactly once, each with
// its CommCost; a bound cuts exactly the leaves costing at least the
// bound, and a visitor returning false ends the walk.
func TestWalkAssignmentsVisitsOrderValidLeaves(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= 3; n++ {
			want := orderValid(g, n)
			seen := map[string]int{}
			var costs []int
			unbounded := -1
			err := WalkAssignments(g, n, &unbounded, nil, func(assign []int, comm int) bool {
				if c := CommCost(g, assign); c != comm {
					t.Fatalf("seed %d n=%d: %v costs %d, walk says %d", seed, n, assign, c, comm)
				}
				seen[fmt.Sprint(assign)]++
				costs = append(costs, comm)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(costs) != len(want) {
				t.Fatalf("seed %d n=%d: walked %d leaves, want %d", seed, n, len(costs), len(want))
			}
			for _, a := range want {
				if seen[fmt.Sprint(a)] != 1 {
					t.Fatalf("seed %d n=%d: %v walked %d times", seed, n, a, seen[fmt.Sprint(a)])
				}
			}
			// a bound at the median cost keeps exactly the cheaper leaves
			sorted := slices.Clone(costs)
			slices.Sort(sorted)
			bound := sorted[len(sorted)/2]
			under := 0
			for _, c := range costs {
				if c < bound {
					under++
				}
			}
			walked := 0
			if err := WalkAssignments(g, n, &bound, nil, func(_ []int, comm int) bool {
				if comm >= bound {
					t.Fatalf("seed %d n=%d: leaf costing %d walked under bound %d", seed, n, comm, bound)
				}
				walked++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if walked != under {
				t.Fatalf("seed %d n=%d: %d leaves under bound %d, want %d", seed, n, walked, bound, under)
			}
			walked = 0
			if err := WalkAssignments(g, n, &unbounded, nil, func([]int, int) bool {
				walked++
				return walked < 2
			}); err != nil {
				t.Fatal(err)
			}
			if want := min(2, len(costs)); walked != want {
				t.Fatalf("seed %d n=%d: a stopped walk visited %d leaves, want %d", seed, n, walked, want)
			}
		}
	}
}

func TestBaselineSimpleSplit(t *testing.T) {
	g := graph.New("s")
	t0 := g.AddTask("t0")
	t1 := g.AddTask("t1")
	a := g.AddOp(t0, graph.OpAdd, "")
	b := g.AddOp(t1, graph.OpMul, "")
	g.Connect(a, b, 3)
	alloc := allocAMS(t, 1, 1, 0)
	// device fits only one FU kind at a time -> forced split, comm 3
	dev := library.Device{Name: "tiny", CapacityFG: 96, Alpha: 1.0, ScratchMem: 64}
	plan, asg := baseline(t, g, alloc, dev, 2, 0)
	if plan == nil || plan.Comm != 3 || !slices.Equal(plan.Segment, []int{1, 2}) {
		t.Fatalf("plan %+v, want segments [1 2] at comm 3", plan)
	}
	if asg.Step[a] != 1 || asg.Step[b] != 2 || !slices.Equal(plan.Steps, []int{1, 1}) {
		t.Fatalf("steps %v, segment spans %v", asg.Step, plan.Steps)
	}
	// with a roomy device everything shares one segment: comm 0
	plan, _ = baseline(t, g, alloc, library.XC4025(), 2, 0)
	if plan == nil || plan.Comm != 0 {
		t.Fatalf("plan %+v, want comm 0", plan)
	}
}

func TestBaselineStepBudget(t *testing.T) {
	// 4 muls on 1 multiplier: CP=1 but 4 steps needed; L=0 budget is 1
	g := graph.New("m")
	t0 := g.AddTask("t0")
	for i := 0; i < 4; i++ {
		g.AddOp(t0, graph.OpMul, "")
	}
	alloc := allocAMS(t, 0, 1, 0)
	if plan, asg := baseline(t, g, alloc, library.XC4025(), 1, 0); plan != nil || asg != nil {
		t.Fatal("4 muls cannot fit 1 step on 1 multiplier")
	}
	plan, asg := baseline(t, g, alloc, library.XC4025(), 1, 3)
	if plan == nil || asg.Span != 4 {
		t.Fatalf("plan %+v, schedule %+v: want a 4-step schedule", plan, asg)
	}
}

// Given a done context, the baseline list-schedules no leaf: the first
// leaf it would walk schedules, so any leaf would have given a plan.
func TestBaselineDoneContext(t *testing.T) {
	g, err := randgraph.Tiny(3)
	if err != nil {
		t.Fatal(err)
	}
	alloc := allocAMS(t, 2, 2, 2)
	w, err := ComputeWindows(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan, _, err := Baseline(context.Background(), g, alloc, library.XC4025(), w, 2, 2, 1); err != nil || plan == nil {
		t.Fatalf("the first leaf does not schedule: plan %v, err %v", plan, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if plan, asg, err := Baseline(ctx, g, alloc, library.XC4025(), w, 2, 2, 0); err != nil || plan != nil || asg != nil {
		t.Fatalf("a done context gave plan %v, schedule %v, err %v", plan, asg, err)
	}
}

// hashCut refuses a prefix when the (task, segment, depth) of its last
// task hashes to zero, and checks the walk's side of the Cut contract:
// no Join below a refused prefix, and each Leave undoes the latest Join.
type hashCut struct {
	t       *testing.T
	joined  [][3]int // task, segment, refused (0 or 1)
	refused int
}

func (c *hashCut) refuses(t, p, depth int) bool { return (7*t+3*p+11*depth)%5 == 0 }

func (c *hashCut) Join(t, p int) bool {
	if c.refused > 0 {
		c.t.Fatalf("Join(%d, %d) below a refused prefix", t, p)
	}
	r := c.refuses(t, p, len(c.joined))
	e := [3]int{t, p, 0}
	if r {
		e[2] = 1
		c.refused++
	}
	c.joined = append(c.joined, e)
	return !r
}

func (c *hashCut) Leave(t, p int) {
	top := c.joined[len(c.joined)-1]
	if top[0] != t || top[1] != p {
		c.t.Fatalf("Leave(%d, %d) after Join(%d, %d)", t, p, top[0], top[1])
	}
	c.refused -= top[2]
	c.joined = c.joined[:len(c.joined)-1]
}

// A cut drops exactly the subtrees of the prefixes it refuses: the walk
// visits the order-valid leaves none of whose prefixes, in topological
// task order, the cut refuses, each once, and it never asks the cut
// below a refused prefix. With a bound as well, the walk visits the
// leaves that both keep.
func TestWalkAssignmentsCutDropsRefusedSubtrees(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, err := randgraph.Tiny(seed)
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopoTasks()
		if err != nil {
			t.Fatal(err)
		}
		cut := &hashCut{t: t}
		for n := 1; n <= 3; n++ {
			var kept, cheap []string
			costs := map[string]int{}
			for _, a := range orderValid(g, n) {
				ok := true
				for d, task := range order {
					if cut.refuses(task, a[task], d) {
						ok = false
						break
					}
				}
				if ok {
					kept = append(kept, fmt.Sprint(a))
					costs[fmt.Sprint(a)] = CommCost(g, a)
				}
			}
			var walked []string
			unbounded := -1
			if err := WalkAssignments(g, n, &unbounded, cut, func(assign []int, comm int) bool {
				walked = append(walked, fmt.Sprint(assign))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			slices.Sort(kept)
			slices.Sort(walked)
			if !slices.Equal(walked, kept) {
				t.Fatalf("seed %d n=%d: walked %v, want %v", seed, n, walked, kept)
			}
			if len(cut.joined) != 0 {
				t.Fatalf("seed %d n=%d: %d joins left after the walk", seed, n, len(cut.joined))
			}
			if len(kept) == 0 {
				continue
			}
			bound := costs[kept[len(kept)/2]]
			for _, a := range kept {
				if costs[a] < bound {
					cheap = append(cheap, a)
				}
			}
			walked = walked[:0]
			if err := WalkAssignments(g, n, &bound, cut, func(assign []int, comm int) bool {
				walked = append(walked, fmt.Sprint(assign))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			slices.Sort(walked)
			if !slices.Equal(walked, cheap) {
				t.Fatalf("seed %d n=%d bound %d: walked %v, want %v", seed, n, bound, walked, cheap)
			}
		}
	}
}
