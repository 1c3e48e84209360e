package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/randgraph"
	"repro/internal/sched"
)

// ledgerRow is one row of the paper's Tables 3 and 4 under the options
// of those tables (tightened model, exact sweep).
type ledgerRow struct {
	label             string
	graph, n, l       int
	adders, muls, sub int
	// open rows did not close before the step count, and T4 g3 N3 L2
	// still does not: the ledger takes a prefix of their assignments at
	// a reduced budget instead of the sweep's set
	open bool
}

var ledgerRows = []ledgerRow{
	{"T3 g1 N3 L0", 1, 3, 0, 2, 2, 1, false},
	{"T3 g1 N2 L4", 1, 2, 4, 2, 2, 1, false},
	{"T4 g4 N2 L1", 4, 2, 1, 2, 2, 2, false},
	{"T4 g4 N3 L0", 4, 3, 0, 2, 2, 2, false},
	{"T4 g5 N3 L0", 5, 3, 0, 2, 2, 2, false},
	{"T4 g5 N2 L2", 5, 2, 2, 2, 2, 2, false},
	{"T4 g6 N3 L0", 6, 3, 0, 2, 2, 2, false},
	{"T4 g6 N2 L1", 6, 2, 1, 2, 2, 2, false},
	{"T3 g1 N3 L3", 1, 3, 3, 2, 2, 1, true},
	{"T3 g1 N2 L3", 1, 2, 3, 2, 2, 1, true},
	{"T4 g2 N4 L2", 2, 4, 2, 3, 2, 2, true},
	{"T4 g3 N3 L2", 3, 3, 2, 2, 2, 2, true},
}

// Open rows: how many assignments the ledger takes, and the step
// budget of each exact search.
const (
	ledgerOpenPrefix = 100
	ledgerOpenBudget = 20_000
)

func buildLedgerModel(t testing.TB, r ledgerRow) *Model {
	t.Helper()
	g, err := randgraph.Paper(r.graph)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), r.adders, r.muls, r.sub)
	if err != nil {
		t.Fatal(err)
	}
	inst := Instance{Graph: g, Alloc: alloc, Device: library.XC4010()}
	m, err := Build(inst, Options{N: r.n, L: r.l, Tightened: true, ExactSweep: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// solveSweep runs the exact sweep on a fresh model as a solve runs it.
func solveSweep(m *Model) sweepResult {
	return m.exactSweep(nil)
}

// sweptAssignments rebuilds, on a fresh model of a closed row, the
// assignments the exact sweep handed to the exact scheduler before its
// walk had the step-count cut: the walk with the cost bound and no cut,
// which list-schedules each leaf that fits the scratch memory and lowers
// the bound on each success, keeps the leaves the list scheduler fails,
// and hands on those still under the final bound. The closed rows' exact
// scheduler finds no schedule, so no leaf is dropped on a bound that
// settling lowers. Every assignment the sweep now enumerates must be
// among them. They are returned sorted by their probe-cache keys.
func sweptAssignments(t testing.TB, m *Model) [][]int {
	t.Helper()
	g := m.Inst.Graph
	bound := -1
	var kept [][]int
	var costs []int
	var sc sched.ListScratch
	_ = sched.WalkAssignments(g, m.N, &bound, nil, func(part []int, comm int) bool {
		if !sched.MemoryFits(g, part, m.N, m.Inst.Device.ScratchMem) {
			return true
		}
		if step, unit, ok := m.listWitness(part, &sc); ok {
			if sol := m.solutionFrom(part, step, unit); sol != nil && (bound < 0 || sol.Comm < bound) {
				bound = sol.Comm
			}
			return true
		}
		kept = append(kept, append([]int(nil), part...))
		costs = append(costs, comm)
		return true
	})
	byKey := map[string][]int{}
	for i, part := range kept {
		if bound < 0 || costs[i] < bound {
			byKey[fmt.Sprint(part)] = part
		}
	}
	sw := solveSweep(m)
	if sw.unresolved != 0 {
		t.Fatalf("sweep left %d assignments unresolved", sw.unresolved)
	}
	for k := range m.probeCache {
		if byKey[k] == nil {
			t.Fatalf("the sweep enumerated %s, which the walk without the cut did not hand on", k)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([][]int, len(keys))
	for i, k := range keys {
		parts[i] = byKey[k]
	}
	return parts
}

// orderValidPrefix returns the first limit assignments the sweep's walk
// visits (sched.WalkAssignments), with no cost bound.
func orderValidPrefix(g *graph.Graph, n, limit int) [][]int {
	var out [][]int
	unbounded := -1
	_ = sched.WalkAssignments(g, n, &unbounded, nil, func(assign []int, _ int) bool {
		out = append(out, append([]int(nil), assign...))
		return len(out) < limit
	})
	return out
}

// ledgerLine runs exactSchedule and listWitness on each assignment of
// the row and summarizes their decisions: the assignment count, the
// exact scheduler's found/infeasible/budget counts, the witness count,
// and an FNV-64a digest over every (status, step, unit) and
// (ok, step, unit) record.
func ledgerLine(t testing.TB, r ledgerRow) string {
	t.Helper()
	m := buildLedgerModel(t, r)
	budget := probeBudgetFull
	var parts [][]int
	if r.open {
		budget = ledgerOpenBudget
		parts = orderValidPrefix(m.Inst.Graph, m.N, ledgerOpenPrefix)
	} else {
		parts = sweptAssignments(t, m)
	}
	var counts [3]int
	witnessed := 0
	h := fnv.New64a()
	var sc sched.ListScratch // reused across assignments, as the sweep does
	for _, part := range parts {
		ent := m.exactSchedule(part, budget)
		counts[ent.status]++
		step, unit, ok := m.listWitness(part, &sc)
		if ok {
			witnessed++
		}
		fmt.Fprintf(h, "%v %d %v %v %t %v %v\n", part, ent.status, ent.step, ent.unit, ok, step, unit)
	}
	return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%016x",
		r.label, len(parts), counts[schedFound], counts[schedInfeasible], counts[schedBudget], witnessed, h.Sum64())
}

// TestExactScheduleLedger pins every decision of the exact sweep's two
// schedulers on the paper's rows: each closed row's swept assignments
// at the full budget, and a prefix of each open row's assignments at a
// reduced budget. testdata/schedule_ledger.txt records, for the closed
// rows, the decisions of the map-based schedulers these replaced; a
// scheduler change that alters any status, step or unit fails here.
func TestExactScheduleLedger(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(filepath.Join("testdata", "schedule_ledger.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label, _, _ := strings.Cut(line, "\t")
		want[label] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range ledgerRows {
		if got := ledgerLine(t, r); got != want[r.label] {
			t.Errorf("ledger differs:\n got %s\nwant %s", got, want[r.label])
		}
	}
}

// exactScheduleMaxAllocs bounds the allocations of one exactSchedule
// call: the step count's state, the schedule's two slices, and the
// search state and its two backing arrays. The count does not grow with
// the number of placements tried.
const exactScheduleMaxAllocs = 7

// TestExactScheduleSteadyStateAllocs runs exactSchedule on the first
// ledgerOpenPrefix order-valid assignments of T4 g3 N3 L2 and checks
// that no call allocates more than exactScheduleMaxAllocs times. Some of
// them pass the step count and backtrack through many placements until
// the budget runs out, so an allocation per placement would show.
func TestExactScheduleSteadyStateAllocs(t *testing.T) {
	var row ledgerRow
	for _, r := range ledgerRows {
		if r.label == "T4 g3 N3 L2" {
			row = r
		}
	}
	m := buildLedgerModel(t, row)
	parts := orderValidPrefix(m.Inst.Graph, m.N, ledgerOpenPrefix)
	searched, worst := 0, 0.0
	for _, part := range parts {
		if m.stepsFit(part) {
			searched++
		}
		// several runs, so that an allocation elsewhere in the process
		// (a goroutine an earlier test left winding down) averages out
		a := testing.AllocsPerRun(5, func() {
			_ = m.exactSchedule(part, ledgerOpenBudget)
		})
		worst = math.Max(worst, a)
	}
	if searched == 0 {
		t.Fatal("the step count refutes every assignment: none backtracks")
	}
	if worst > exactScheduleMaxAllocs {
		t.Fatalf("exactSchedule allocates up to %.0f times per call over %d assignments, want at most %d",
			worst, len(parts), exactScheduleMaxAllocs)
	}
	t.Logf("%d assignments, %d backtracked, at most %.0f allocations per call", len(parts), searched, worst)
}

// unitLedgerTypes are the unit types the unit ledger's allocations are
// drawn from: single-cycle units, the multicycle mul16x2 and div16, and
// the pipelined mul16p.
var unitLedgerTypes = []string{"add16", "sub16", "addsub16", "mul16", "mul16x2", "mul16p", "cmp16", "div16"}

// unitLedgerSeeds is the number of seeded instances in each corpus.
const unitLedgerSeeds = 40

// ledgerInstance draws a seeded ledger instance: an allocation of one
// or two units of a random subset of unitLedgerTypes, always with a
// multicycle or pipelined unit, a randgraph graph of 2 to tasks+1 tasks
// over the op kinds that allocation covers, and a device whose
// capacity is drawn by capacity.
func ledgerInstance(t testing.TB, seed int64, name string, tasks int, capacity func(*rand.Rand) int) (Instance, int, int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	counts := map[string]int{}
	for _, name := range unitLedgerTypes {
		if r.Intn(2) == 1 {
			counts[name] = 1 + r.Intn(2)
		}
	}
	counts[[]string{"mul16x2", "mul16p", "div16"}[r.Intn(3)]]++
	alloc, err := library.NewAllocation(library.DefaultLibrary(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []randgraph.WeightedKind
	for _, k := range []graph.OpKind{graph.OpAdd, graph.OpSub, graph.OpMul, graph.OpCmp, graph.OpDiv} {
		if len(alloc.UnitsFor(k)) > 0 {
			kinds = append(kinds, randgraph.WeightedKind{Kind: k, Weight: 1 + r.Intn(4)})
		}
	}
	nt := 2 + r.Intn(tasks)
	g, err := randgraph.Generate(randgraph.Config{
		Name:         fmt.Sprintf("%s%d", name, seed),
		Tasks:        nt,
		Ops:          nt + 2 + r.Intn(6),
		TaskEdgeProb: 0.4,
		OpEdgeProb:   0.4,
		MaxBandwidth: 5,
		Kinds:        kinds,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	dev := library.Device{
		Name:       "ledger",
		CapacityFG: capacity(r),
		Alpha:      1,
		ScratchMem: []int{6, 64}[r.Intn(2)],
	}
	return Instance{Graph: g, Alloc: alloc, Device: dev}, 2 + r.Intn(2), r.Intn(3)
}

// unitLedgerInstance draws the seeded instance of the unit ledger: a
// ledgerInstance of 2 to 4 tasks on a device of 160, 280 or 400 FG.
func unitLedgerInstance(t testing.TB, seed int64) (Instance, int, int) {
	return ledgerInstance(t, seed, "unit", 3, func(r *rand.Rand) int { return []int{160, 280, 400}[r.Intn(3)] })
}

// unitLedgerLine builds every seeded instance with or without
// Multicycle, runs exactSchedule, listWitness and the step count
// (stepsFit) on each order-valid assignment, and summarizes their
// decisions: the models built, the assignments, the exact scheduler's
// found/infeasible/budget counts, the witness count, the step-count
// fits, and an FNV-64a digest over every record (build errors
// included).
func unitLedgerLine(t testing.TB, multicycle bool) string {
	t.Helper()
	label := "unit"
	if multicycle {
		label = "multicycle"
	}
	h := fnv.New64a()
	var counts [3]int
	built, assignments, witnessed, fits := 0, 0, 0, 0
	var sc sched.ListScratch // reused across models and assignments
	for seed := int64(1); seed <= unitLedgerSeeds; seed++ {
		inst, n, l := unitLedgerInstance(t, seed)
		m, err := Build(inst, Options{N: n, L: l, Tightened: true, Multicycle: multicycle})
		if err != nil {
			fmt.Fprintf(h, "%d build: %v\n", seed, err)
			continue
		}
		built++
		for _, part := range orderValidPrefix(inst.Graph, n, 1000) {
			assignments++
			ent := m.exactSchedule(part, ledgerOpenBudget)
			counts[ent.status]++
			step, unit, ok := m.listWitness(part, &sc)
			if ok {
				witnessed++
			}
			fit := m.stepsFit(part)
			if fit {
				fits++
			}
			fmt.Fprintf(h, "%d %v %d %v %v %t %v %v %t\n", seed, part, ent.status, ent.step, ent.unit, ok, step, unit, fit)
		}
	}
	return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%016x", label, built, assignments,
		counts[schedFound], counts[schedInfeasible], counts[schedBudget], witnessed, fits, h.Sum64())
}

// TestUnitScheduleLedger pins the decisions of exactSchedule,
// listWitness and the step count on multicycle and pipelined units,
// which the paper rows of TestExactScheduleLedger never allocate. A
// change that alters any status, step, unit or step-count verdict fails
// here.
func TestUnitScheduleLedger(t *testing.T) {
	checkCorpusLedger(t, "unit_ledger.txt", unitLedgerLine)
}

// checkCorpusLedger compares the lines line draws without and with
// Multicycle against the data lines of testdata/file, in that order.
func checkCorpusLedger(t *testing.T, file string, line func(t testing.TB, multicycle bool) string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, l := range strings.Split(string(want), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	for i, mc := range []bool{false, true} {
		got := line(t, mc)
		if i >= len(lines) || got != lines[i] {
			t.Errorf("%s differs:\n got %s", file, got)
			if i < len(lines) {
				t.Errorf("want %s", lines[i])
			}
		}
	}
}

// TestBuildSteadyStateAllocs bounds the allocations of Build on the
// largest paper row, T4 g6 N3 L0. Build followed by the first read of
// its LP may allocate a tenth of the row plus column count: rows and
// columns are named by keys and appended to flat arrays reserved from
// Build's count of the rows, so an allocation per row or column — a
// formatted name, a row's own slices, a per-row scratch slice — would
// show. Build alone lays out the columns and counts the rows, storing
// neither, so it may allocate a twentieth.
func TestBuildSteadyStateAllocs(t *testing.T) {
	var row ledgerRow
	for _, r := range ledgerRows {
		if r.label == "T4 g6 N3 L0" {
			row = r
		}
	}
	m := buildLedgerModel(t, row)
	st := m.Stats()
	for _, tc := range []struct {
		name  string
		emit  bool
		limit float64
	}{
		{"Build and LP", true, float64(st.Rows+st.Vars) / 10},
		{"Build", false, float64(st.Rows+st.Vars) / 20},
	} {
		a := testing.AllocsPerRun(3, func() {
			m, err := Build(m.Inst, m.Opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.emit {
				m.LP()
			}
		})
		if a > tc.limit {
			t.Errorf("%s allocates %.0f times for %d rows and %d columns, want at most %.0f", tc.name, a, st.Rows, st.Vars, tc.limit)
		}
		t.Logf("%s: %d rows, %d columns, %.0f allocations", tc.name, st.Rows, st.Vars, a)
	}
}

// sweepLedgerSeeds is the number of seeded instances in each corpus of
// the sweep outcome ledger.
const sweepLedgerSeeds = 800

// sweepLedgerInstance draws the seeded instance of the sweep outcome
// ledger: a ledgerInstance of 2 to 7 tasks on a tight device of 100 to
// 200 FG, so that many instances must split their tasks and pay
// communication.
func sweepLedgerInstance(t testing.TB, seed int64) (Instance, int, int) {
	return ledgerInstance(t, seed, "sweep", 6, func(r *rand.Rand) int { return 100 + r.Intn(101) })
}

// sweepOutcomeLine builds every seeded instance with or without
// Multicycle, runs the exact sweep on it as a solve runs it, and
// summarizes the outcomes: the models built, the sweeps that report a
// solution and those whose solution costs communication, the
// enumerated and unresolved totals, the probe-cache entries holding a
// found schedule, an FNV-64a digest over every sweep's counts, reported
// solution and probe-cache entries in key order (build errors
// included), and an FNV-64a digest over the reported solutions alone.
func sweepOutcomeLine(t testing.TB, multicycle bool) string {
	t.Helper()
	label := "unit"
	if multicycle {
		label = "multicycle"
	}
	h, hs := fnv.New64a(), fnv.New64a()
	built, solved, costly, enumerated, unresolved, found := 0, 0, 0, 0, 0, 0
	for seed := int64(1); seed <= sweepLedgerSeeds; seed++ {
		inst, n, l := sweepLedgerInstance(t, seed)
		m, err := Build(inst, Options{N: n, L: l, Tightened: true, ExactSweep: true, Multicycle: multicycle})
		if err != nil {
			fmt.Fprintf(h, "%d build: %v\n", seed, err)
			continue
		}
		built++
		sw := solveSweep(m)
		enumerated += sw.enumerated
		unresolved += sw.unresolved
		fmt.Fprintf(h, "%d %d %d", seed, sw.enumerated, sw.unresolved)
		if sol := sw.best; sol != nil {
			solved++
			if sol.Comm > 0 {
				costly++
			}
			fmt.Fprintf(h, " %d %v %v %v", sol.Comm, sol.TaskPartition, sol.OpStep, sol.OpUnit)
			fmt.Fprintf(hs, "%d %d %v %v %v\n", seed, sol.Comm, sol.TaskPartition, sol.OpStep, sol.OpUnit)
		}
		keys := make([]string, 0, len(m.probeCache))
		for k := range m.probeCache {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ent := m.probeCache[k]
			if ent.status == schedFound {
				found++
			}
			fmt.Fprintf(h, " %s:%d:%t:%v:%v", k, ent.status, ent.full, ent.step, ent.unit)
		}
		fmt.Fprintln(h)
	}
	return fmt.Sprintf("%s\t%d\t%d\t%d\t%d\t%d\t%d\t%016x\t%016x", label, built, solved, costly,
		enumerated, unresolved, found, h.Sum64(), hs.Sum64())
}

// TestSweepOutcomeLedger pins what the exact sweep reports on a seeded
// corpus of tight-capacity instances, without and with Multicycle: the
// enumerated and unresolved counts, the reported solution and every
// probe-cache entry the sweep leaves behind. A change to what the sweep
// enumerates, caches or reports fails here. The digest of the reported
// solutions alone in testdata/sweep_ledger.txt was recorded before the
// sweep's walk had the step-count cut, which must not move it.
func TestSweepOutcomeLedger(t *testing.T) {
	checkCorpusLedger(t, "sweep_ledger.txt", sweepOutcomeLine)
}
