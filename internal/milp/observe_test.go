package milp

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/internal/lp"
	"repro/internal/trace"
)

// testObserver returns the observer of a fresh solve configured by opt,
// plus a solved LP to finish it against.
func testObserver(t *testing.T, opt Options) (*observer, *lp.Solver) {
	t.Helper()
	p, _ := buildKnapsack(t)
	lps, err := lp.NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	lps.Solve()
	return &newShared(math.Inf(1), &opt, time.Now()).obs, lps
}

// TestObserverOffZeroAlloc pins the off state of every observer entry
// point: with no tracer, recorder, black box or profile attached, node,
// incumbent, lap and finish touch neither the heap nor the clock.
func TestObserverOffZeroAlloc(t *testing.T) {
	o, lps := testObserver(t, Options{})
	if o.nodes {
		t.Fatal("observer with nothing attached wants node events")
	}
	res := &Result{Status: StatusOptimal, X: []float64{1}, Nodes: 3, Mode: ModeSerial}
	n := trace.NodeRec{ID: 1, Col: -1, LP: "optimal", Obj: 1, HasObj: true}
	if a := testing.AllocsPerRun(200, func() {
		o.node(n)
		o.incumbent(0, 1, -5)
		if o.lap(trace.PhaseProbe, o.clock()) != 0 {
			t.Fatal("lap measured time with profiling off")
		}
		o.finish(res, lps, 3)
	}); a != 0 {
		t.Fatalf("observer-off path allocates %.1f per op, want 0", a)
	}
}

// TestBlackBoxNodeSteadyStateAllocs pins the service's per-node
// configuration: with only a black box attached, a warm ring takes node
// events without touching the heap.
func TestBlackBoxNodeSteadyStateAllocs(t *testing.T) {
	bb := trace.NewBlackBox(16)
	o, _ := testObserver(t, Options{BlackBox: bb})
	n := trace.NodeRec{ID: 7, Worker: 1, Depth: 3, Col: 2, LP: "optimal",
		Obj: 1.5, HasObj: true, Best: 1, Inc: 2, HasInc: true}
	for i := 0; i < 32; i++ { // wrap the ring first
		o.node(n)
	}
	if a := testing.AllocsPerRun(200, func() { o.node(n) }); a != 0 {
		t.Fatalf("black-box node event allocates %.1f per op, want 0", a)
	}
	e := bb.Dump().Events[0]
	if e.Kind != trace.BBNode || e.Node != 7 || e.Worker != 1 || e.Depth != 3 ||
		e.Col != 2 || e.Obj != 1.5 || e.Bound != 1 || e.Incumbent != 2 {
		t.Fatalf("node event converted to %+v", e)
	}
}

// TestBlackBoxEventSize bounds the black-box ring element: every service
// job preallocates a ring of them, so growing it grows the heap of
// every job.
func TestBlackBoxEventSize(t *testing.T) {
	if sz := unsafe.Sizeof(trace.BBEvent{}); sz > 96 {
		t.Fatalf("trace.BBEvent is %d bytes, want <= 96", sz)
	}
}

// TestRootTerminalFinish: solves decided by the root LP — infeasible,
// or stopped by an iteration cap standing in for a deadline — take the
// same terminal path as a searched solve: exactly one status event and
// a recording footer carrying the LP counters.
func TestRootTerminalFinish(t *testing.T) {
	infeasible := func() (*lp.Problem, Options) {
		p := &lp.Problem{}
		x, y := p.AddBinary(lp.Name("x"), 1), p.AddBinary(lp.Name("y"), 1)
		if err := p.AddRow(lp.Name("c"), []int{x, y}, []float64{1, 1}, 3, lp.Inf); err != nil {
			t.Fatal(err)
		}
		return p, Options{IntVars: []int{x, y}}
	}
	capped := func() (*lp.Problem, Options) {
		p, ints := buildKnapsack(t)
		ws, err := lp.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		ws.MaxIter = 1
		return p, Options{IntVars: ints, Warm: ws}
	}
	for _, c := range []struct {
		name  string
		build func() (*lp.Problem, Options)
		want  Status
		lp    string
	}{
		{"infeasible", infeasible, StatusInfeasible, "infeasible"},
		{"deadline", capped, StatusLimit, "iteration-limit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, opt := c.build()
			ring := trace.NewRing(64)
			opt.Trace = trace.New(ring)
			opt.Record = trace.NewRecorder(0)
			res, err := solve(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != c.want {
				t.Fatalf("status %v, want %v", res.Status, c.want)
			}
			var status []trace.Event
			for _, e := range ringEvents(ring) {
				if e.Kind == trace.KindStatus {
					status = append(status, e)
				}
			}
			if len(status) != 1 || status[0].Status != c.want.String() || status[0].Factorizations == 0 {
				t.Fatalf("status events %+v, want one %q event carrying the LP counters", status, c.want)
			}
			rec := opt.Record.Snapshot()
			if rec.Status != c.want.String() || rec.LP == nil || rec.LP.Factorizations == 0 {
				t.Fatalf("footer status %q lp %+v, want %q with the LP counters", rec.Status, rec.LP, c.want)
			}
			if rec.TotalNodes != 1 || len(rec.Nodes) != 1 || rec.Nodes[0].LP != c.lp || rec.Mode != "" {
				t.Fatalf("root recording: total %d, nodes %+v, mode %q", rec.TotalNodes, rec.Nodes, rec.Mode)
			}
		})
	}
}

// TestStealIncumbentAttribution: under work stealing, the black box and
// the flight recording attribute every incumbent install to the same
// node — the installing worker's current node, not the global count at
// install time.
func TestStealIncumbentAttribution(t *testing.T) {
	type install struct {
		node int64
		obj  float64
	}
	for seed := int64(1); seed <= 5; seed++ {
		values, weights, capacity := hardKnapsack(seed)
		p, cols := knapsack(values, weights, capacity)
		bb := trace.NewBlackBox(1 << 16)
		rec := trace.NewRecorder(0)
		if _, err := solve(p, Options{IntVars: cols, ObjIntegral: true,
			Parallelism: 4, ParallelThreshold: -1,
			BlackBox: bb, Record: rec}); err != nil {
			t.Fatal(err)
		}
		d := bb.Dump()
		if d.Total != int64(len(d.Events)) {
			t.Fatalf("seed %d: black box dropped %d events", seed, d.Total-int64(len(d.Events)))
		}
		fromBB := map[install]bool{}
		for _, e := range d.Events {
			if e.Kind == trace.BBIncumbent {
				fromBB[install{e.Node, e.Incumbent}] = true
			}
		}
		fromRec := map[install]bool{}
		for _, inc := range rec.Snapshot().Incumbents {
			fromRec[install{inc.Node, inc.Obj}] = true
		}
		if len(fromRec) == 0 {
			t.Fatalf("seed %d: no incumbents recorded", seed)
		}
		if len(fromBB) != len(fromRec) {
			t.Fatalf("seed %d: black box has %v, recording %v", seed, fromBB, fromRec)
		}
		for k := range fromRec {
			if !fromBB[k] {
				t.Fatalf("seed %d: recorded install %+v missing from black box %v", seed, k, fromBB)
			}
		}
	}
}
