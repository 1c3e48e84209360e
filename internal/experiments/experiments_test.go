package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/library"
	"repro/internal/partition"
	"repro/internal/randgraph"
)

func TestTableDefinitions(t *testing.T) {
	for name, gen := range Tables {
		rows := gen()
		if len(rows) == 0 {
			t.Errorf("table %s has no rows", name)
		}
		for _, r := range rows {
			if r.GraphNum < 1 || r.GraphNum > 6 {
				t.Errorf("table %s row %q: graph %d", name, r.Label, r.GraphNum)
			}
			if r.N < 1 || r.L < 0 || r.A < 0 || r.M < 0 || r.S < 0 {
				t.Errorf("table %s row %q: bad config %+v", name, r.Label, r)
			}
			if r.Label == "" {
				t.Errorf("table %s has unlabeled row", name)
			}
		}
	}
}

func TestTable1And2ShareConfigs(t *testing.T) {
	t1, t2 := Table1(), Table2()
	if len(t1) != len(t2) {
		t.Fatalf("row counts differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i].GraphNum != t2[i].GraphNum || t1[i].N != t2[i].N || t1[i].L != t2[i].L {
			t.Errorf("row %d configs differ", i)
		}
		if t1[i].Opt.Tightened || !t2[i].Opt.Tightened {
			t.Errorf("row %d: tightening flags wrong", i)
		}
		if !t1[i].Opt.WPerProduct {
			t.Errorf("row %d: table 1 must use per-product w", i)
		}
	}
}

func TestFormat(t *testing.T) {
	r := &Result{
		Row:      Row{Label: "x", GraphNum: 1, N: 2, L: 1, A: 2, M: 2, S: 1},
		Feasible: true, Optimal: true, Comm: 7, Used: 2,
		Runtime: 1500 * time.Millisecond,
	}
	out := Format(r)
	for _, want := range []string{"Yes", "7(u2)", "1.50s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q: %s", want, out)
		}
	}
	r.Optimal = false
	if out := Format(r); !strings.Contains(out, ">") || !strings.Contains(out, "Yes*") {
		t.Errorf("non-optimal row must be marked: %s", out)
	}
	r.Feasible = false
	if out := Format(r); !strings.Contains(out, "?") {
		t.Errorf("unresolved row must be marked: %s", out)
	}
}

func TestRunSmallRow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// generous config on graph 1: the exact sweep settles it instantly
	res, err := Run(Row{
		Label: "smoke", GraphNum: 1, N: 2, L: 4, A: 2, M: 2, S: 1,
		Opt:       core.Options{Tightened: true, ExactSweep: true},
		TimeLimit: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible")
	}
	if res.Stats.Vars == 0 || res.Stats.Rows == 0 {
		t.Fatal("missing stats")
	}
}

// TestSweepRowHonorsTimeLimit solves T4 g3 N3 L2, an open row whose
// exact sweep leaves assignments unresolved and hands them to branch
// and bound, under a 2 s limit. The limit is one deadline for the
// sweep, the node probes and the search, so the solve must return
// within 3 s, must not claim optimality, and any solution it reports
// must verify.
func TestSweepRowHonorsTimeLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const label, limit, within = "T4 g3 N3 L2", 2 * time.Second, 3 * time.Second
	var row Row
	for _, r := range Table4() {
		if r.Label == label {
			row = r
		}
	}
	if row.Label == "" {
		t.Fatalf("Table4 has no row %q", label)
	}
	g, err := randgraph.Paper(row.GraphNum)
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := library.PaperAllocation(library.DefaultLibrary(), row.A, row.M, row.S)
	if err != nil {
		t.Fatal(err)
	}
	inst := core.Instance{Graph: g, Alloc: alloc, Device: Device()}
	opt := row.Opt
	opt.N, opt.L, opt.TimeLimit = row.N, row.L, limit
	start := time.Now()
	res, err := core.SolveInstance(inst, opt)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	comm := -1
	if res.Solution != nil {
		comm = res.Solution.Comm
	}
	t.Logf("%s under a %v limit returned after %v: feasible=%v optimal=%v comm=%d nodes=%d",
		label, limit, elapsed.Round(time.Millisecond), res.Feasible, res.Optimal, comm, res.Nodes)
	if elapsed > within {
		t.Errorf("returned after %v, want at most %v under a %v limit", elapsed, within, limit)
	}
	if res.Optimal {
		t.Errorf("optimality claimed for an open row under a %v limit", limit)
	}
	if res.Solution != nil {
		if err := partition.Verify(g, alloc, inst.Device, res.Solution, partition.VerifyOptions{L: row.L}); err != nil {
			t.Errorf("reported solution fails verification: %v", err)
		}
	}
}
