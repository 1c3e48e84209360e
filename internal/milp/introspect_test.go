package milp

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// hardKnapsack returns a knapsack instance large enough to force a real
// branch-and-bound tree (tens of nodes) under either scheduler.
func hardKnapsack(seed int64) ([]float64, []float64, float64) {
	r := rand.New(rand.NewSource(seed))
	n := 16
	values := make([]float64, n)
	weights := make([]float64, n)
	var wsum float64
	for j := 0; j < n; j++ {
		values[j] = 1 + float64(r.Intn(40))
		weights[j] = 1 + float64(r.Intn(20))
		wsum += weights[j]
	}
	return values, weights, wsum * 0.4
}

// TestPanicNodeFlushesBlackBox injects a deliberate worker panic at a
// known node and verifies the contract end to end: the solve fails with
// an error naming the node (never a partial result), and the black box
// froze at the panic with a dump whose tail identifies the failing node
// and carries the stack.
func TestPanicNodeFlushesBlackBox(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{}},
		{"steal", Options{Parallelism: 4, ParallelThreshold: -1}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			values, weights, capacity := hardKnapsack(7)
			p, cols := knapsack(values, weights, capacity)
			bb := trace.NewBlackBox(64)
			opt := mode.opt
			opt.IntVars = cols
			opt.ObjIntegral = true
			opt.BlackBox = bb
			opt.PanicNode = 3
			res, err := solve(p, opt)
			if err == nil {
				t.Fatalf("panicked solve returned a result: %+v", res)
			}
			if !strings.Contains(err.Error(), "worker panic at node 3") {
				t.Fatalf("error %q does not name the failing node", err)
			}
			reason, ok := bb.Flushed()
			if !ok || reason != "worker-panic" {
				t.Fatalf("black box flushed = %q, %v; want worker-panic", reason, ok)
			}
			d := bb.Dump()
			if !d.Flushed || len(d.Events) == 0 {
				t.Fatalf("dump = %+v", d)
			}
			last := d.Events[len(d.Events)-1]
			if last.Kind != trace.BBPanic || last.Node != 3 {
				t.Fatalf("last event = %+v, want panic at node 3", last)
			}
			if !strings.Contains(last.Msg, "injected fault") || !strings.Contains(last.Msg, "goroutine") {
				t.Fatalf("panic event msg lacks the value and stack: %q", last.Msg)
			}
			// the node trail before the panic localizes the crash
			var sawNode bool
			for _, e := range d.Events {
				if e.Kind == trace.BBNode {
					sawNode = true
				}
			}
			if !sawNode {
				t.Fatal("dump has no node trail before the panic")
			}
		})
	}
}

// TestSearchStatusSnapshotLive polls the live handle while a slowed
// parallel solve runs and verifies the introspection figures move:
// running with nodes explored mid-flight, not running once done.
func TestSearchStatusSnapshotLive(t *testing.T) {
	values, weights, capacity := hardKnapsack(11)
	p, cols := knapsack(values, weights, capacity)
	st := NewSearchStatus()
	if _, ok := st.Snapshot(); ok {
		t.Fatal("unattached handle reported ok")
	}
	done := make(chan error, 1)
	go func() {
		_, err := solve(p, Options{IntVars: cols, ObjIntegral: true,
			Parallelism: 4, ParallelThreshold: -1,
			Status: st, NodeDelay: 2 * time.Millisecond})
		done <- err
	}()
	var live SearchSnapshot
	deadline := time.After(10 * time.Second)
	for {
		if snap, ok := st.Snapshot(); ok && snap.Running && snap.Nodes > 0 {
			live = snap
			break
		}
		select {
		case err := <-done:
			t.Fatalf("solve finished before a live snapshot was seen (err=%v)", err)
		case <-deadline:
			t.Fatal("no live snapshot within 10s")
		case <-time.After(time.Millisecond):
		}
	}
	if live.Mode != "steal" || live.Workers != 4 {
		t.Fatalf("live snapshot mode/workers = %q/%d", live.Mode, live.Workers)
	}
	if live.Gap == 0 {
		t.Fatalf("gap = 0 in a live snapshot; want -1 (unknown) or a positive gap: %+v", live)
	}
	if len(live.WorkerPhases) != 5 {
		t.Fatalf("worker phases = %v, want 5 slots (coordinator + 4 workers)", live.WorkerPhases)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after, ok := st.Snapshot()
	if !ok || after.Running {
		t.Fatalf("post-solve snapshot = %+v, ok=%v; want attached but not running", after, ok)
	}
	if after.Nodes < live.Nodes {
		t.Fatalf("node counter went backwards: %d -> %d", live.Nodes, after.Nodes)
	}
}

// TestSpanTreeFromSolve runs a traced solve and checks the span tree
// has the documented shape: root-lp and search under the caller's span,
// per-worker children under search, annotated with node counts.
func TestSpanTreeFromSolve(t *testing.T) {
	values, weights, capacity := hardKnapsack(13)
	p, cols := knapsack(values, weights, capacity)
	sc := trace.NewSpans("")
	root := sc.Root("solve")
	_, err := solve(p, Options{IntVars: cols, ObjIntegral: true,
		Parallelism: 4, ParallelThreshold: -1, Span: root})
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	recs := sc.Snapshot()
	ended := map[string]bool{}
	byName := map[string][]trace.SpanRec{}
	for _, r := range recs {
		ended[r.SpanID] = true
		byName[r.Name] = append(byName[r.Name], r)
	}
	// a span left open is missing from the snapshot, and so is the
	// parent of any span that ended under it
	for _, r := range recs {
		if r.ParentID != "" && !ended[r.ParentID] {
			t.Fatalf("span %q ended under a span left open", r.Name)
		}
	}
	for _, want := range []string{"root-lp", "search"} {
		if len(byName[want]) != 1 {
			t.Fatalf("span %q appears %d times, want 1", want, len(byName[want]))
		}
	}
	search := byName["search"][0]
	if search.Str["mode"] != "steal" {
		t.Fatalf("search mode attr = %q", search.Str["mode"])
	}
	if search.Num["nodes"] <= 0 {
		t.Fatalf("search nodes attr = %v", search.Num["nodes"])
	}
	workers := byName["worker"]
	if len(workers) != 4 {
		t.Fatalf("%d worker spans, want 4", len(workers))
	}
	var workerNodes float64
	for _, w := range workers {
		if w.ParentID != search.SpanID {
			t.Fatalf("worker span parented to %q, not search", w.ParentID)
		}
		if w.Worker == 0 {
			t.Fatal("worker span missing its worker id")
		}
		workerNodes += w.Num["nodes"]
	}
	if workerNodes <= 0 {
		t.Fatal("worker spans carry no node counts")
	}
}
