package milp

import (
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/trace"
)

// buildKnapsack returns a tiny 0-1 problem with a nontrivial search
// tree: minimize -(5x+4y+3z) subject to 2x+3y+z <= 5.
func buildKnapsack(t *testing.T) (*lp.Problem, []int) {
	t.Helper()
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), -5)
	y := p.AddBinary(lp.Name("y"), -4)
	z := p.AddBinary(lp.Name("z"), -3)
	if err := p.AddRow(lp.Name("cap"), []int{x, y, z}, []float64{2, 3, 1}, -lp.Inf, 5); err != nil {
		t.Fatal(err)
	}
	return p, []int{x, y, z}
}

func TestTraceEventsSerial(t *testing.T) {
	p, ints := buildKnapsack(t)

	// reference solve without tracing
	ref, err := solve(p, Options{IntVars: ints})
	if err != nil {
		t.Fatal(err)
	}

	ring := trace.NewRing(256)
	tr := trace.New(ring)
	tr.SetSampleEvery(1) // every node, so the tiny tree still emits
	res, err := solve(p, Options{IntVars: ints, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ref.Status || res.Objective != ref.Objective {
		t.Fatalf("traced solve diverged: %+v vs %+v", res, ref)
	}

	evs := ringEvents(ring)
	if len(evs) == 0 {
		t.Fatal("no events emitted")
	}
	var roots, nodes, incumbents int
	lastBound := math.Inf(-1)
	lastNodes := int64(0)
	for _, e := range evs {
		switch e.Kind {
		case trace.KindRoot:
			roots++
			if e.Bound == 0 {
				t.Fatalf("root event carries no bound: %+v", e)
			}
		case trace.KindNode:
			nodes++
			if e.Nodes < lastNodes {
				t.Fatalf("node counter regressed: %d after %d", e.Nodes, lastNodes)
			}
			lastNodes = e.Nodes
			if e.Bound != 0 && e.Bound < lastBound {
				t.Fatalf("display bound regressed: %v after %v", e.Bound, lastBound)
			}
			if e.Bound != 0 {
				lastBound = e.Bound
			}
		case trace.KindIncumbent:
			incumbents++
			if !e.HasIncumbent {
				t.Fatalf("incumbent event without incumbent: %+v", e)
			}
		}
	}
	if roots != 1 {
		t.Fatalf("got %d root events, want 1", roots)
	}
	if nodes == 0 {
		t.Fatal("no node events despite SampleEvery(1)")
	}
	if incumbents == 0 {
		t.Fatal("no incumbent events")
	}

	last := evs[len(evs)-1]
	if last.Kind != trace.KindStatus {
		t.Fatalf("last event is %q, want status", last.Kind)
	}
	if last.Status != "optimal" {
		t.Fatalf("terminal status %q, want optimal", last.Status)
	}
	if !last.HasIncumbent || last.Incumbent != ref.Objective {
		t.Fatalf("terminal incumbent %v, want %v", last.Incumbent, ref.Objective)
	}
	if int(last.Nodes) != res.Nodes || int(last.Pivots) != res.LPIterations {
		t.Fatalf("terminal counters %d/%d, result says %d/%d",
			last.Nodes, last.Pivots, res.Nodes, res.LPIterations)
	}
	if last.WindowScans == 0 {
		t.Fatalf("terminal event carries no LP counters: %+v", last)
	}
	if last.Gap != 0 {
		t.Fatalf("optimal solve reports gap %v, want 0", last.Gap)
	}
}

func TestTraceEventsParallelMonotoneBound(t *testing.T) {
	p, ints := buildKnapsack(t)
	ring := trace.NewRing(1024)
	tr := trace.New(ring)
	tr.SetSampleEvery(1)
	res, err := solve(p, Options{IntVars: ints, Parallelism: 4, ParallelThreshold: -1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	lastBound := math.Inf(-1)
	for _, e := range ringEvents(ring) {
		if e.Kind != trace.KindNode && e.Kind != trace.KindBound && e.Kind != trace.KindStatus {
			continue
		}
		if e.Bound != 0 && e.Bound < lastBound-1e-9 {
			t.Fatalf("bound regressed to %v after %v in %q event", e.Bound, lastBound, e.Kind)
		}
		if e.Bound != 0 {
			lastBound = e.Bound
		}
	}
}
