package milp

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
)

// recordedSolve runs a solve with a fresh recorder attached and returns
// the result plus the recording snapshot.
func recordedSolve(t *testing.T, opt Options) (*Result, *trace.Recording) {
	t.Helper()
	p, ints := buildKnapsack(t)
	opt.IntVars = ints
	opt.Record = trace.NewRecorder(0)
	res, err := solve(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, opt.Record.Snapshot()
}

// identity strips the timing fields from a node record so deterministic
// replays can be compared: two serial solves of the same instance must
// agree on everything — including pivot counts — except wall-clock
// noise.
func identity(n trace.NodeRec) trace.NodeRec {
	n.NS = 0
	n.TMS = 0
	return n
}

// TestRecordReplayDeterminism is the replay contract: a serial solve is
// deterministic, so recording it twice yields identical node and
// incumbent sequences (ids, lineage edges, LP statuses, objectives,
// bounds, pivot counts), and the codec round-trips that sequence
// bit-for-bit.
func TestRecordReplayDeterminism(t *testing.T) {
	res1, rec1 := recordedSolve(t, Options{})
	res2, rec2 := recordedSolve(t, Options{})
	if res1.Status != res2.Status || res1.Objective != res2.Objective || res1.Nodes != res2.Nodes {
		t.Fatalf("serial solve not deterministic: %+v vs %+v", res1, res2)
	}
	if len(rec1.Nodes) != len(rec2.Nodes) {
		t.Fatalf("recorded %d nodes, replay recorded %d", len(rec1.Nodes), len(rec2.Nodes))
	}
	if len(rec1.Nodes) != res1.Nodes {
		t.Fatalf("recording has %d nodes, result explored %d", len(rec1.Nodes), res1.Nodes)
	}
	for i := range rec1.Nodes {
		a, b := identity(rec1.Nodes[i]), identity(rec2.Nodes[i])
		if a != b {
			t.Fatalf("node %d diverged between identical solves:\n%+v\n%+v", i, a, b)
		}
	}
	if len(rec1.Incumbents) == 0 || len(rec1.Incumbents) != len(rec2.Incumbents) {
		t.Fatalf("incumbent sequences: %d vs %d (want equal, nonzero)",
			len(rec1.Incumbents), len(rec2.Incumbents))
	}
	for i := range rec1.Incumbents {
		if rec1.Incumbents[i].Node != rec2.Incumbents[i].Node ||
			rec1.Incumbents[i].Obj != rec2.Incumbents[i].Obj {
			t.Fatalf("incumbent %d diverged: %+v vs %+v", i, rec1.Incumbents[i], rec2.Incumbents[i])
		}
	}
	// the last incumbent is the optimum
	if last := rec1.Incumbents[len(rec1.Incumbents)-1]; last.Obj != res1.Objective {
		t.Fatalf("final recorded incumbent %v, result objective %v", last.Obj, res1.Objective)
	}
	// codec round trip preserves the replayed sequence
	var buf bytes.Buffer
	if err := rec1.Encode(&buf, true); err != nil {
		t.Fatal(err)
	}
	back, err := trace.DecodeRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(rec1.Nodes) || back.Status != rec1.Status {
		t.Fatalf("codec round trip lost data: %d nodes/%q vs %d/%q",
			len(back.Nodes), back.Status, len(rec1.Nodes), rec1.Status)
	}
	for i := range back.Nodes {
		if back.Nodes[i] != rec1.Nodes[i] {
			t.Fatalf("node %d changed in round trip", i)
		}
	}
}

// checkLineage verifies the structural recording invariants: ids are
// unique, the root is node 1 with col=-1, and every other node's parent
// was recorded with a smaller id (the atomic node counter orders
// parents before children even across workers).
func checkLineage(t *testing.T, rec *trace.Recording) {
	t.Helper()
	seen := make(map[int64]bool, len(rec.Nodes))
	for _, n := range rec.Nodes {
		if seen[n.ID] {
			t.Fatalf("duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
		if n.Parent == 0 {
			if n.Col != -1 {
				t.Fatalf("root node %d has branching col %d, want -1", n.ID, n.Col)
			}
			continue
		}
		if n.Parent >= n.ID {
			t.Fatalf("node %d has parent %d >= its own id", n.ID, n.Parent)
		}
		if !seen[n.Parent] {
			t.Fatalf("node %d references unrecorded parent %d", n.ID, n.Parent)
		}
	}
}

func TestRecordSerialLineage(t *testing.T) {
	res, rec := recordedSolve(t, Options{})
	checkLineage(t, rec)
	if rec.Status != res.Status.String() {
		t.Fatalf("footer status %q, result %v", rec.Status, res.Status)
	}
	if rec.TotalNodes != int64(res.Nodes) || rec.Pivots != int64(res.LPIterations) {
		t.Fatalf("footer totals %d/%d, result %d/%d",
			rec.TotalNodes, rec.Pivots, res.Nodes, res.LPIterations)
	}
}

// TestRecordParallelLineage runs a genuinely parallel recorded solve
// (gate disabled) and checks that the merged recording is still a valid
// tree: worker pickups re-parent onto split-time nodes, ids stay unique
// under the atomic counter, and worker attribution appears.
func TestRecordParallelLineage(t *testing.T) {
	p, cols := parityTrap(13)
	rec := trace.NewRecorder(0)
	res, err := solve(p, Options{
		IntVars: cols, Parallelism: 4, ParallelThreshold: -1, Record: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible (parity trap)", res.Status)
	}
	snap := rec.Snapshot()
	checkLineage(t, snap)
	if snap.TotalNodes != int64(res.Nodes) {
		t.Fatalf("footer says %d nodes, result %d", snap.TotalNodes, res.Nodes)
	}
	workers := false
	for _, n := range snap.Nodes {
		if n.Worker > 0 {
			workers = true
			break
		}
	}
	if !workers {
		t.Fatal("no node attributed to a parallel worker")
	}
	if len(snap.Phases) == 0 {
		t.Fatal("recording footer carries no phase histograms")
	}
}

// TestParallelGateFallsBackSerial: a small instance with the gate at
// its default must refuse the parallel request, run serially, emit a
// plan event saying why, and never spin up workers.
func TestParallelGateFallsBackSerial(t *testing.T) {
	p, ints := buildKnapsack(t)
	ref, err := solve(p, Options{IntVars: ints})
	if err != nil {
		t.Fatal(err)
	}
	ring := trace.NewRing(256)
	tr := trace.New(ring)
	res, err := solve(p, Options{IntVars: ints, Parallelism: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != ref.Status || res.Objective != ref.Objective || res.Nodes != ref.Nodes {
		t.Fatalf("gated solve diverged from serial: %+v vs %+v", res, ref)
	}
	var plan *trace.Event
	for _, e := range ringEvents(ring) {
		e := e
		switch e.Kind {
		case trace.KindPlan:
			plan = &e
		case trace.KindWorker:
			t.Fatalf("worker event after serial fallback: %+v", e)
		}
	}
	if plan == nil {
		t.Fatal("no plan event recorded for the gate decision")
	}
	if plan.Msg == "" || plan.Msg == "parallel search" {
		t.Fatalf("plan event does not explain the fallback: %+v", plan)
	}
}

// TestParallelGateHonorsLargeRequest: with the gate disabled via the
// negative sentinel the same tiny instance does go parallel (worker
// events appear), proving the fallback above is the gate's doing.
func TestParallelGateHonorsLargeRequest(t *testing.T) {
	p, ints := parityTrap(13)
	ring := trace.NewRing(1024)
	tr := trace.New(ring)
	if _, err := solve(p, Options{IntVars: ints, Parallelism: 4, ParallelThreshold: -1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	sawPlan, sawWorker := false, false
	for _, e := range ringEvents(ring) {
		switch e.Kind {
		case trace.KindPlan:
			sawPlan = true
			if !strings.HasPrefix(e.Msg, "mode=steal") {
				t.Fatalf("plan event %+v, want a mode=steal decision", e)
			}
		case trace.KindWorker:
			sawWorker = true
		}
	}
	if !sawPlan || !sawWorker {
		t.Fatalf("plan=%v worker=%v, want both", sawPlan, sawWorker)
	}
}

// TestRecordingImpliesProfile: attaching only a Recorder still yields
// phase attribution in the footer, with node-lp dominating a solve that
// does nothing but LP work, and the node-level phases covering most of
// the recorded wall time.
func TestRecordingImpliesProfile(t *testing.T) {
	_, rec := recordedSolve(t, Options{})
	if len(rec.Phases) == 0 {
		t.Fatal("no phases in recording footer")
	}
	var nodeLP bool
	var nodeLevelNS int64
	for _, ph := range rec.Phases {
		p, ok := trace.ParsePhase(ph.Name)
		if !ok {
			t.Fatalf("footer phase %q unknown", ph.Name)
		}
		if p == trace.PhaseNodeLP {
			nodeLP = ph.Count > 0
		}
		if p.NodeLevel() {
			nodeLevelNS += ph.SumNS
		}
	}
	if !nodeLP {
		t.Fatal("node-lp phase absent or empty")
	}
	if rec.WallNS > 0 {
		cov := float64(nodeLevelNS) / float64(rec.WallNS)
		// the tree is tiny, so allow generous slack; the real >=90%
		// acceptance check runs on fir16 via cmd/tpreplay
		if cov <= 0 || math.IsNaN(cov) {
			t.Fatalf("phase coverage %v of wall, want > 0", cov)
		}
	}
}
