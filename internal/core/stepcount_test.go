package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/sched"
)

// stepCountSearchBudget is the step budget of the searches that check
// the step count's refutations: far past anything the corpus needs, so
// that each search ends with a verdict.
const stepCountSearchBudget = 200_000_000

// TestStepCountRefutesOnlyUnschedulable checks the step count against
// the exact scheduler's search, which does not count, on the sweep
// outcome ledger's corpus without and with Multicycle: no order-valid
// assignment the count refutes has a schedule, and the search proves
// each of them infeasible within its budget.
func TestStepCountRefutesOnlyUnschedulable(t *testing.T) {
	for _, mc := range []bool{false, true} {
		t.Run(fmt.Sprintf("multicycle=%v", mc), func(t *testing.T) {
			t.Parallel()
			checked, refuted := 0, 0
			for seed := int64(1); seed <= sweepLedgerSeeds; seed++ {
				inst, n, l := sweepLedgerInstance(t, seed)
				m, err := Build(inst, Options{N: n, L: l, Tightened: true, Multicycle: mc})
				if err != nil {
					continue
				}
				for _, part := range orderValidPrefix(inst.Graph, n, 100_000) {
					checked++
					if m.stepsFit(part) {
						continue
					}
					refuted++
					if st := m.searchSchedule(part, stepCountSearchBudget).status; st != schedInfeasible {
						t.Errorf("seed %d: the step count refutes %v, the search gives status %d", seed, part, st)
					}
				}
			}
			if refuted == 0 {
				t.Fatalf("the step count refuted none of %d assignments", checked)
			}
			t.Logf("%d assignments, %d refuted by the step count, each proved infeasible", checked, refuted)
		})
	}
}

// TestStepCountJoinZeroAlloc checks that the cut allocates nothing as
// tasks join and leave: the walk calls it at every prefix.
func TestStepCountJoinZeroAlloc(t *testing.T) {
	var row ledgerRow
	for _, r := range ledgerRows {
		if r.label == "T4 g2 N4 L2" {
			row = r
		}
	}
	m := buildLedgerModel(t, row)
	var c stepCount
	c.init(m)
	order := c.tab.order
	a := testing.AllocsPerRun(100, func() {
		for _, task := range order {
			c.Join(task, 1)
		}
		for i := len(order) - 1; i >= 0; i-- {
			c.Leave(order[i], 1)
		}
	})
	if a != 0 {
		t.Fatalf("joining and leaving %d tasks allocates %.0f times, want 0", len(order), a)
	}
	if c.total != 0 {
		t.Fatalf("the count holds %d steps after every task left", c.total)
	}
}

// TestStepCountCutsBeforeAnyLeaf solves a 12-task instance with no task
// edges in which every task holds three muls, two of them chained, on a
// single multiplier: N=3 and L=0 give a two-step budget, and each task
// needs three issue steps. The sweep's walk must cut every prefix at
// its first task, so no leaf is walked or enumerated, and the solve must
// prove the instance infeasible.
func TestStepCountCutsBeforeAnyLeaf(t *testing.T) {
	g := graph.New("flatmul")
	for i := 0; i < 12; i++ {
		task := g.AddTask(fmt.Sprintf("t%d", i))
		a := g.AddOp(task, graph.OpMul, "")
		b := g.AddOp(task, graph.OpMul, "")
		g.AddOp(task, graph.OpMul, "")
		g.AddOpEdge(a, b)
	}
	alloc, err := library.NewAllocation(library.DefaultLibrary(), map[string]int{"mul16": 1})
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Graph: g, Alloc: alloc, Device: library.XC4010()}
	opt := Options{N: 3, L: 0, Tightened: true, ExactSweep: true}
	m, err := Build(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Win.MaxStep(opt.L); got != 2 {
		t.Fatalf("step budget %d, want 2", got)
	}
	var cut stepCount
	cut.init(m)
	unbounded, leaves := -1, 0
	if err := sched.WalkAssignments(g, m.N, &unbounded, &cut, func([]int, int) bool {
		leaves++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if leaves != 0 {
		t.Fatalf("the cut walk visited %d leaves, want 0", leaves)
	}
	sw := m.exactSweep(nil)
	if sw.best != nil || sw.enumerated != 0 || sw.unresolved != 0 {
		t.Fatalf("sweep: best %v, %d enumerated, %d unresolved; want none of each", sw.best, sw.enumerated, sw.unresolved)
	}
	res, err := SolveInstance(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || !res.Optimal || res.Nodes != 0 {
		t.Fatalf("solve: feasible=%v optimal=%v nodes=%d; want a proof of infeasibility with no node", res.Feasible, res.Optimal, res.Nodes)
	}
}

// fittingSets lists the undominated unit sets that fit the device, per
// kind. Past its enumeration bounds it falls back to one set that
// serves each kind with every unit of the kind that fits on its own.
func TestFittingSets(t *testing.T) {
	// graph 1 (kinds add, mul, sub) on 2 add16, 2 mul16 and 1 sub16 on
	// the XC4010 (228 FG at alpha 0.7): two multipliers leave room for
	// two adders or one adder and the subtracter; one multiplier, for
	// everything else
	m := buildLedgerModel(t, ledgerRows[0])
	if got, want := m.stepTables().sets, []int{2, 2, 0, 2, 1, 1, 1, 2, 1}; !slices.Equal(got, want) {
		t.Errorf("paper allocation: sets %v, want %v", got, want)
	}
	g := graph.New("kinds")
	task := g.AddTask("t")
	for _, k := range []graph.OpKind{graph.OpAdd, graph.OpAnd, graph.OpCmp, graph.OpSub} {
		g.AddOp(task, k, "")
	}
	alloc, err := library.NewAllocation(library.DefaultLibrary(),
		map[string]int{"add16": 12, "sub16": 12, "addsub16": 12, "cmp16": 12, "logic16": 12})
	if err != nil {
		t.Fatal(err)
	}
	m, err = Build(Instance{Graph: g, Alloc: alloc, Device: library.XC4010()}, Options{N: 1, L: 0})
	if err != nil {
		t.Fatal(err)
	}
	// add: 12 add16 + 12 addsub16, and: 12 logic16, cmp: 12 cmp16,
	// sub: 12 sub16 + 12 addsub16; each type fits 12 times on its own
	if got, want := m.stepTables().sets, []int{24, 12, 12, 24}; !slices.Equal(got, want) {
		t.Errorf("large allocation: sets %v, want the fallback %v", got, want)
	}
}

// Steal workers probe one model concurrently, so whichever probe comes
// first builds the step count's tables while others wait for them.
func TestStepCountConcurrentFirstUse(t *testing.T) {
	var row ledgerRow
	for _, r := range ledgerRows {
		if r.label == "T4 g2 N4 L2" {
			row = r
		}
	}
	serial := buildLedgerModel(t, row)
	parts := orderValidPrefix(serial.Inst.Graph, serial.N, 200)
	want := make([]bool, len(parts))
	for i, part := range parts {
		want[i] = serial.stepsFit(part)
	}
	m := buildLedgerModel(t, row)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, part := range parts {
				if got := m.stepsFit(part); got != want[i] {
					t.Errorf("%v: concurrent step count %v, serial %v", part, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
