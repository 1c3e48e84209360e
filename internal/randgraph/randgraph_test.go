package randgraph

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "d", Tasks: 6, Ops: 20}
	a, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
	c, err := Generate(cfg, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateProfile(t *testing.T) {
	g, err := Generate(Config{Name: "p", Tasks: 7, Ops: 31}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTasks() != 7 || g.NumOps() != 31 {
		t.Fatalf("profile = %d/%d, want 7/31", g.NumTasks(), g.NumOps())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Tasks: 0, Ops: 5}, 1); err == nil {
		t.Error("0 tasks accepted")
	}
	if _, err := Generate(Config{Tasks: 5, Ops: 3}, 1); err == nil {
		t.Error("ops < tasks accepted")
	}
}

func TestPaperGraphs(t *testing.T) {
	wantTasks := []int{5, 10, 10, 10, 10, 10}
	wantOps := []int{22, 37, 45, 44, 65, 72}
	for n := 1; n <= len(wantTasks); n++ {
		g, err := Paper(n)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumTasks() != wantTasks[n-1] || g.NumOps() != wantOps[n-1] {
			t.Errorf("graph %d: %d/%d, want %d/%d", n, g.NumTasks(), g.NumOps(), wantTasks[n-1], wantOps[n-1])
		}
		if err := g.Validate(); err != nil {
			t.Errorf("graph %d: %v", n, err)
		}
		// tree connectivity: every task after the first has a
		// predecessor
		for tk := 1; tk < g.NumTasks(); tk++ {
			if len(g.TaskPred(tk)) == 0 {
				t.Errorf("graph %d: task %d has no predecessor", n, tk)
			}
		}
	}
	if _, err := Paper(0); err == nil {
		t.Error("graph 0 accepted")
	}
	if _, err := Paper(7); err == nil {
		t.Error("graph 7 accepted")
	}
}

func TestTinyWithinOracleLimits(t *testing.T) {
	f := func(seed int64) bool {
		g, err := Tiny(seed)
		if err != nil {
			return false
		}
		return g.NumTasks() <= 4 && g.NumOps() <= 8 && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCustomKinds(t *testing.T) {
	g, err := Generate(Config{
		Name: "k", Tasks: 3, Ops: 12,
		Kinds: []WeightedKind{{graph.OpDiv, 1}},
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range g.Ops() {
		if op.Kind != graph.OpDiv {
			t.Fatalf("op %d kind %s, want div only", op.ID, op.Kind)
		}
	}
}
