package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/lp"
	"repro/internal/trace"
)

// buildSpans counts the spans named build among sc's finished spans.
func buildSpans(sc *trace.Spans) int {
	n := 0
	for _, s := range sc.Snapshot() {
		if s.Name == "build" {
			n++
		}
	}
	return n
}

// TestSweepRowLeavesLPUnemitted: a paper row the exact sweep closes
// returns its verdict and its model size without emitting its LP, and
// that size is the size of the LP once something reads it.
func TestSweepRowLeavesLPUnemitted(t *testing.T) {
	var row ledgerRow
	for _, r := range ledgerRows {
		if r.label == "T4 g6 N3 L0" {
			row = r
		}
	}
	m := buildLedgerModel(t, row)
	res, err := m.SolveContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || !res.Feasible || res.Nodes != 0 {
		t.Fatalf("optimal=%v feasible=%v nodes=%d, want a verdict of the sweep", res.Optimal, res.Feasible, res.Nodes)
	}
	if m.prob != nil {
		t.Fatal("the sweep closed the row, yet its LP was emitted")
	}
	if res.Stats != m.Stats() || res.Stats.Rows == 0 {
		t.Fatalf("result stats %+v, model stats %+v", res.Stats, m.Stats())
	}
	if st := m.LP().Stats(); st != res.Stats {
		t.Fatalf("emitted LP %+v, counted %+v", st, res.Stats)
	}
}

// TestLPFirstReadRace: goroutines racing the first read of a model's
// LP all get the one problem, emitted once. Run it under -race.
func TestLPFirstReadRace(t *testing.T) {
	sc := trace.NewSpans("")
	root := sc.Root("test")
	m, err := Build(smokeInstance(t), Options{N: 3, L: 1, Tightened: true, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*lp.Problem, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = m.LP()
		}()
	}
	wg.Wait()
	for g, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("goroutine %d got problem %p, goroutine 0 got %p", g, p, got[0])
		}
	}
	if st := got[0].Stats(); st != m.Stats() {
		t.Fatalf("emitted LP %+v, counted %+v", st, m.Stats())
	}
	// one span for Build's count, one for the emission
	if n := buildSpans(sc); n != 2 {
		t.Fatalf("%d build spans, want 2", n)
	}
}
