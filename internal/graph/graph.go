// Package graph models the behavioral specification accepted by the
// temporal partitioning and synthesis system: a directed acyclic task
// graph whose vertices are tasks, each task holding a DAG of operations.
//
// The structure mirrors Section 3 of Kaul & Vemuri (DATE 1998):
//
//   - Tasks are the unit of temporal partitioning; a task is never split
//     across temporal segments.
//   - Task-graph edges carry Bandwidth(t1,t2), the number of data units
//     that must be stored in scratch memory when the two tasks land in
//     different segments.
//   - Operations are the unit of scheduling and binding; operation edges
//     (within a task or across tasks) carry dataflow dependencies.
package graph

import (
	"fmt"
	"sort"
)

// OpKind identifies the abstract operation an operation node performs.
// Functional units in a component library declare which kinds they can
// execute.
type OpKind string

// Common operation kinds used by the examples, generators and tests.
// The set is open: any non-empty string is a valid OpKind as long as the
// component library can execute it.
const (
	OpAdd OpKind = "add"
	OpSub OpKind = "sub"
	OpMul OpKind = "mul"
	OpDiv OpKind = "div"
	OpCmp OpKind = "cmp"
	OpAnd OpKind = "and"
	OpOr  OpKind = "or"
	OpShl OpKind = "shl"
)

// Op is a single behavioral operation inside a task.
type Op struct {
	// ID is unique across the whole specification (all tasks).
	ID int
	// Task is the ID of the owning task.
	Task int
	// Kind is the abstract operation performed.
	Kind OpKind
	// Label is an optional human-readable name used in reports.
	Label string
}

// Task is a group of operations that must stay together in one temporal
// segment. Tasks in the same segment share control steps and functional
// units.
type Task struct {
	// ID is unique across the specification; IDs are dense 0..NumTasks-1
	// after Graph.Normalize.
	ID int
	// Label is an optional human-readable name used in reports.
	Label string
	// Ops lists the IDs of the operations owned by this task.
	Ops []int
}

// TaskEdge is a data dependency between two tasks. If the tasks are
// placed in different temporal segments, Bandwidth data units must be
// stored in scratch memory across every segment boundary between them.
type TaskEdge struct {
	From, To  int
	Bandwidth int
}

// OpEdge is a dataflow dependency between two operations. The producer
// must complete in a strictly earlier control step than the consumer
// starts (unit-latency model; multicycle latencies widen the gap).
// Weight is the number of data units the dependency carries; when the
// endpoints live in different tasks it contributes Weight to the task
// edge's bandwidth (see Connect).
type OpEdge struct {
	From, To int
	Weight   int
}

// Graph is a complete behavioral specification.
//
// The zero value is an empty specification ready for AddTask / AddOp.
type Graph struct {
	Name string

	tasks    []Task
	ops      []Op
	taskEdge []TaskEdge
	opEdge   []OpEdge

	// adjacency caches, rebuilt lazily
	dirty       bool
	taskSucc    [][]int
	taskPred    [][]int
	opSucc      [][]int
	opPred      [][]int
	taskEdgeIdx map[[2]int]int
}

// New returns an empty named specification.
func New(name string) *Graph {
	return &Graph{Name: name, dirty: true, taskEdgeIdx: map[[2]int]int{}}
}

// AddTask appends a task with the given label and returns its ID.
func (g *Graph) AddTask(label string) int {
	id := len(g.tasks)
	g.tasks = append(g.tasks, Task{ID: id, Label: label})
	g.dirty = true
	return id
}

// AddOp appends an operation of the given kind to task t and returns the
// operation ID. It panics if t is not a valid task ID.
func (g *Graph) AddOp(t int, kind OpKind, label string) int {
	if t < 0 || t >= len(g.tasks) {
		panic(fmt.Sprintf("graph: AddOp: no such task %d", t))
	}
	id := len(g.ops)
	g.ops = append(g.ops, Op{ID: id, Task: t, Kind: kind, Label: label})
	g.tasks[t].Ops = append(g.tasks[t].Ops, id)
	g.dirty = true
	return id
}

// AddTaskEdge records a task-level dependency from -> to with the given
// bandwidth. Adding the same (from,to) pair again accumulates bandwidth.
func (g *Graph) AddTaskEdge(from, to, bandwidth int) {
	if g.taskEdgeIdx == nil {
		g.taskEdgeIdx = map[[2]int]int{}
	}
	if i, ok := g.taskEdgeIdx[[2]int{from, to}]; ok {
		g.taskEdge[i].Bandwidth += bandwidth
		return
	}
	g.taskEdgeIdx[[2]int{from, to}] = len(g.taskEdge)
	g.taskEdge = append(g.taskEdge, TaskEdge{From: from, To: to, Bandwidth: bandwidth})
	g.dirty = true
}

// AddOpEdge records an operation-level dataflow dependency from -> to
// carrying one data unit. If the two operations belong to different
// tasks, the caller is responsible for also recording the task-level
// edge (see Connect for a convenience that does both).
func (g *Graph) AddOpEdge(from, to int) {
	g.opEdge = append(g.opEdge, OpEdge{From: from, To: to, Weight: 1})
	g.dirty = true
}

// Connect records an operation dependency carrying bandwidth data
// units and, when the endpoints live in different tasks, accumulates
// the same amount on the corresponding task edge, keeping op-level and
// task-level accounting consistent. It is the preferred way to wire
// cross-task dataflow.
func (g *Graph) Connect(fromOp, toOp, bandwidth int) {
	g.opEdge = append(g.opEdge, OpEdge{From: fromOp, To: toOp, Weight: bandwidth})
	g.dirty = true
	ft, tt := g.ops[fromOp].Task, g.ops[toOp].Task
	if ft != tt {
		g.AddTaskEdge(ft, tt, bandwidth)
	}
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumOps returns the number of operations.
func (g *Graph) NumOps() int { return len(g.ops) }

// Task returns the task with the given ID.
func (g *Graph) Task(id int) Task { return g.tasks[id] }

// Op returns the operation with the given ID.
func (g *Graph) Op(id int) Op { return g.ops[id] }

// Tasks returns all tasks in ID order. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) Tasks() []Task { return g.tasks }

// Ops returns all operations in ID order. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) Ops() []Op { return g.ops }

// TaskEdges returns all task edges. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) TaskEdges() []TaskEdge { return g.taskEdge }

// OpEdges returns all operation edges. The returned slice is shared;
// callers must not mutate it.
func (g *Graph) OpEdges() []OpEdge { return g.opEdge }

// Bandwidth returns the bandwidth of the task edge from -> to, or 0 if
// no such edge exists.
func (g *Graph) Bandwidth(from, to int) int {
	if i, ok := g.taskEdgeIdx[[2]int{from, to}]; ok {
		return g.taskEdge[i].Bandwidth
	}
	return 0
}

func (g *Graph) rebuild() {
	if !g.dirty {
		return
	}
	nt, no := len(g.tasks), len(g.ops)
	g.taskSucc = make([][]int, nt)
	g.taskPred = make([][]int, nt)
	g.opSucc = make([][]int, no)
	g.opPred = make([][]int, no)
	for _, e := range g.taskEdge {
		g.taskSucc[e.From] = append(g.taskSucc[e.From], e.To)
		g.taskPred[e.To] = append(g.taskPred[e.To], e.From)
	}
	for _, e := range g.opEdge {
		g.opSucc[e.From] = append(g.opSucc[e.From], e.To)
		g.opPred[e.To] = append(g.opPred[e.To], e.From)
	}
	for _, adj := range [][][]int{g.taskSucc, g.taskPred, g.opSucc, g.opPred} {
		for i := range adj {
			sort.Ints(adj[i])
		}
	}
	g.dirty = false
}

// TaskPred returns the IDs of tasks task t directly depends on,
// sorted ascending.
func (g *Graph) TaskPred(t int) []int { g.rebuild(); return g.taskPred[t] }

// OpSucc returns the IDs of operations directly dependent on op i,
// sorted ascending.
func (g *Graph) OpSucc(i int) []int { g.rebuild(); return g.opSucc[i] }

// OpPred returns the IDs of operations op i directly depends on,
// sorted ascending.
func (g *Graph) OpPred(i int) []int { g.rebuild(); return g.opPred[i] }

// TopoTasks returns a topological order of the task IDs, preferring
// lower IDs among ready tasks so the order is deterministic. The order
// doubles as the branching priority of the paper's variable-selection
// heuristic (Section 8). It returns an error if the task graph has a
// cycle.
func (g *Graph) TopoTasks() ([]int, error) {
	g.rebuild()
	return topo(len(g.tasks), g.taskPred, g.taskSucc, "task")
}

// TopoOps returns a deterministic topological order of the operation
// IDs, or an error if the operation graph has a cycle.
func (g *Graph) TopoOps() ([]int, error) {
	g.rebuild()
	return topo(len(g.ops), g.opPred, g.opSucc, "operation")
}

func topo(n int, pred, succ [][]int, what string) ([]int, error) {
	indeg := make([]int, n)
	for v := range pred {
		indeg[v] = len(pred[v])
	}
	// min-heap behavior via sorted ready list; n is small in practice.
	var ready []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready = append(ready, v)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, n)
	for len(ready) > 0 {
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		changed := false
		for _, w := range succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				ready = append(ready, w)
				changed = true
			}
		}
		if changed {
			sort.Ints(ready)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: %s graph contains a cycle", what)
	}
	return order, nil
}

// Validate checks structural invariants: edge endpoints exist, the task
// and operation graphs are acyclic, every cross-task operation edge is
// mirrored by a task edge, task edges are consistent with a task-level
// ordering, and bandwidths are non-negative.
func (g *Graph) Validate() error {
	for _, e := range g.taskEdge {
		if e.From < 0 || e.From >= len(g.tasks) || e.To < 0 || e.To >= len(g.tasks) {
			return fmt.Errorf("graph: task edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop task edge on task %d", e.From)
		}
		if e.Bandwidth < 0 {
			return fmt.Errorf("graph: negative bandwidth on task edge %d->%d", e.From, e.To)
		}
	}
	for _, e := range g.opEdge {
		if e.From < 0 || e.From >= len(g.ops) || e.To < 0 || e.To >= len(g.ops) {
			return fmt.Errorf("graph: op edge %d->%d out of range", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("graph: self-loop op edge on op %d", e.From)
		}
	}
	if _, err := g.TopoTasks(); err != nil {
		return err
	}
	if _, err := g.TopoOps(); err != nil {
		return err
	}
	for _, e := range g.opEdge {
		ft, tt := g.ops[e.From].Task, g.ops[e.To].Task
		if ft != tt && g.Bandwidth(ft, tt) == 0 {
			return fmt.Errorf("graph: op edge %d->%d crosses tasks %d->%d with no task edge", e.From, e.To, ft, tt)
		}
	}
	return nil
}

// OpKinds returns the set of operation kinds present, sorted.
func (g *Graph) OpKinds() []OpKind {
	seen := map[OpKind]bool{}
	for _, op := range g.ops {
		seen[op.Kind] = true
	}
	kinds := make([]OpKind, 0, len(seen))
	for k := range seen {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// CountKinds returns the number of operations of each kind.
func (g *Graph) CountKinds() map[OpKind]int {
	c := map[OpKind]int{}
	for _, op := range g.ops {
		c[op.Kind]++
	}
	return c
}
