package milp

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
	"repro/internal/trace"
)

// TestPropertyStealMatchesSerialWithStrengthening extends the core
// determinism contract to the full strengthened pipeline: root cuts,
// the diving heuristic and the work-stealing scheduler together must
// report exactly the serial objective and status.
func TestPropertyStealMatchesSerialWithStrengthening(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		values, weights, capacity := buildRandomMILP(r)
		p1, cols1 := knapsack(values, weights, capacity)
		p2, cols2 := knapsack(values, weights, capacity)
		serial, err := solve(p1, Options{IntVars: cols1, ObjIntegral: true})
		if err != nil {
			return false
		}
		par, err := solve(p2, Options{IntVars: cols2, ObjIntegral: true,
			Parallelism: 4, ParallelThreshold: -1,
			RootCuts: true, Dive: true})
		if err != nil {
			return false
		}
		if par.Mode != ModeSteal {
			t.Logf("seed %d: mode %v, want steal", seed, par.Mode)
			return false
		}
		if serial.Status != par.Status {
			t.Logf("seed %d: status %v != %v", seed, serial.Status, par.Status)
			return false
		}
		if serial.Status == StatusOptimal {
			if math.Abs(serial.Objective-par.Objective) > 1e-9 {
				t.Logf("seed %d: objective %v != %v", seed, serial.Objective, par.Objective)
				return false
			}
			if err := p2.Feasible(par.X, 1e-6); err != nil {
				t.Logf("seed %d: steal X infeasible: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestStealDeterministicOptimum runs the work-stealing search
// repeatedly on one instance: the reported optimum must equal the
// serial one on every run, however the workers interleave.
func TestStealDeterministicOptimum(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5, 7, 9, 4, 11, 6, 3, 14}
	weights := []float64{2, 3, 2, 5, 1, 2, 3, 1, 4, 2, 1, 4}
	p0, cols0 := knapsack(values, weights, 14)
	serial, err := solve(p0, Options{IntVars: cols0, ObjIntegral: true})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		p, cols := knapsack(values, weights, 14)
		res, err := solve(p, Options{IntVars: cols, ObjIntegral: true,
			Parallelism: 4, ParallelThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ModeSteal {
			t.Fatalf("run %d: mode %v, want steal", run, res.Mode)
		}
		if res.Status != StatusOptimal || math.Abs(res.Objective-serial.Objective) > 1e-9 {
			t.Fatalf("run %d: status=%v obj=%v, want optimal %v",
				run, res.Status, res.Objective, serial.Objective)
		}
		if err := p.Feasible(res.X, 1e-6); err != nil {
			t.Fatalf("run %d: incumbent infeasible: %v", run, err)
		}
	}
}

// TestStealProvesInfeasibility: with an odd worker count the pool must
// still hand off and finish every subtree before it reports that no
// integer point exists.
func TestStealProvesInfeasibility(t *testing.T) {
	p, cols := parityTrap(13)
	res, err := solve(p, Options{IntVars: cols, Parallelism: 3,
		ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSteal {
		t.Fatalf("mode %v, want steal", res.Mode)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want %v", res.Status, StatusInfeasible)
	}
}

// TestStealStormCancel hammers cancellation while many workers donate
// and steal mid-tree; primarily a -race target for the pool's
// termination protocol under abort.
func TestStealStormCancel(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		p, cols := parityTrap(40)
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(4+5*trial) * time.Millisecond)
		res, err := SolveContext(ctx, p, Options{IntVars: cols, Parallelism: 8,
			ParallelThreshold: -1})
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCancelled && res.Status != StatusInfeasible {
			t.Fatalf("trial %d: status = %v", trial, res.Status)
		}
	}
}

// TestStealEmitsStealEvents: on a tree big enough to keep 4 workers
// busy, the pool must actually steal (and report it in Result.Steals
// and as steal trace events), not just run 4 serial searches.
func TestStealEmitsStealEvents(t *testing.T) {
	// On one scheduler thread the seeding worker can exhaust the whole
	// tree before any peer wakes; two threads make the race real.
	if old := runtime.GOMAXPROCS(0); old < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(old)
	}
	p, cols := parityTrap(17)
	ring := trace.NewRing(4096)
	res, err := solve(p, Options{IntVars: cols, Parallelism: 4,
		ParallelThreshold: -1, Trace: trace.New(ring)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steals == 0 {
		t.Fatal("work-stealing solve reported zero steals on a deep tree")
	}
	sawSteal := false
	for _, e := range ringEvents(ring) {
		if e.Kind == trace.KindSteal {
			sawSteal = true
			if e.Worker == 0 || e.Msg == "" {
				t.Fatalf("steal event missing thief/victim: %+v", e)
			}
		}
	}
	if !sawSteal {
		t.Fatal("no steal trace events emitted")
	}
}

// TestCoverCutsValidBruteForce separates cover cuts on random binary
// knapsack LPs and brute-forces every feasible 0-1 point against them:
// the combinatorial validity argument must hold exactly.
func TestCoverCutsValidBruteForce(t *testing.T) {
	cutsSeen := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		values, weights, capacity := buildRandomMILP(r)
		if len(values) > 12 {
			continue
		}
		p, cols := knapsack(values, weights, capacity)
		lps, err := lp.NewSolver(p)
		if err != nil {
			t.Fatal(err)
		}
		if lps.Solve() != lp.StatusOptimal {
			continue
		}
		s := &solver{prob: p, lps: lps, isInt: make([]bool, p.NumVars())}
		for _, j := range cols {
			s.isInt[j] = true
		}
		cuts := s.coverCuts(lps.Solution(), maxCoverCuts)
		cutsSeen += len(cuts)
		n := len(cols)
		x := make([]float64, p.NumVars())
		for bits := 0; bits < 1<<n; bits++ {
			for j := 0; j < n; j++ {
				x[j] = float64((bits >> j) & 1)
			}
			if p.Feasible(x, 1e-9) != nil {
				continue
			}
			for _, c := range cuts {
				lhs := 0.0
				for k, j := range c.Idx {
					lhs += c.Val[k] * x[j]
				}
				if lhs > c.Hi+1e-9 {
					t.Fatalf("seed %d: cover cut %s cuts off feasible point %v (lhs %v > hi %v)",
						seed, c.Name, x[:n], lhs, c.Hi)
				}
			}
		}
	}
	if cutsSeen == 0 {
		t.Fatal("no cover cuts generated across 300 seeds; separator is dead")
	}
	t.Logf("verified %d cover cuts by brute force", cutsSeen)
}

// TestCutAugmentedVerdictCertifies: a solve with root cuts and Certify
// on must produce a checked, valid certificate — the exact layer
// verifies the verdict against the cut-augmented model.
func TestCutAugmentedVerdictCertifies(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		values, weights, capacity := buildRandomMILP(r)
		p, cols := knapsack(values, weights, capacity)
		res, err := solve(p, Options{IntVars: cols, ObjIntegral: true,
			RootCuts: true, Dive: true, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusOptimal {
			continue
		}
		if res.Certificate == nil {
			t.Fatalf("seed %d: no certificate", seed)
		}
		if !res.Certificate.Valid {
			t.Fatalf("seed %d (cuts=%d): certificate invalid: %+v",
				seed, res.CutsApplied, res.Certificate.Checks)
		}
	}
}

// TestCutsRecordedAndReplayable: applied cuts must land in the flight
// recording and survive the NDJSON round trip, alongside the search
// stats footer.
func TestCutsRecordedAndReplayable(t *testing.T) {
	var res *Result
	var rec *trace.Recorder
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		values, weights, capacity := buildRandomMILP(r)
		p, cols := knapsack(values, weights, capacity)
		rec = trace.NewRecorder(1 << 16)
		var err error
		res, err = solve(p, Options{IntVars: cols, ObjIntegral: true,
			RootCuts: true, Dive: true, Record: rec})
		if err != nil {
			t.Fatal(err)
		}
		if res.CutsApplied > 0 {
			break
		}
	}
	if res == nil || res.CutsApplied == 0 {
		t.Skip("no instance produced cuts (separator thresholds)")
	}
	snap := rec.Snapshot()
	if len(snap.Cuts) != res.CutsApplied {
		t.Fatalf("recording carries %d cuts, result says %d", len(snap.Cuts), res.CutsApplied)
	}
	if snap.Mode != "serial" {
		t.Fatalf("recording mode %q, want serial", snap.Mode)
	}
	var buf bytes.Buffer
	if err := snap.Encode(&buf, false); err != nil {
		t.Fatal(err)
	}
	back, err := trace.DecodeRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cuts) != len(snap.Cuts) {
		t.Fatalf("round trip lost cuts: %d -> %d", len(snap.Cuts), len(back.Cuts))
	}
	for i := range back.Cuts {
		if back.Cuts[i].Name != snap.Cuts[i].Name || len(back.Cuts[i].Idx) != len(snap.Cuts[i].Idx) {
			t.Fatalf("cut %d mismatch after round trip: %+v vs %+v", i, back.Cuts[i], snap.Cuts[i])
		}
	}
	if back.Mode != snap.Mode || back.FirstIncNodes != snap.FirstIncNodes {
		t.Fatalf("search stats lost in round trip: %+v vs %+v", back, snap)
	}
}

// TestDiveSeedsIncumbent: on an instance with an integral-friendly
// structure the dive must install an incumbent before the tree search
// explores a single node.
func TestDiveSeedsIncumbent(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5, 7, 9, 4}
	weights := []float64{2, 3, 2, 5, 1, 2, 3, 1}
	p, cols := knapsack(values, weights, 9)
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true, Dive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.FirstIncumbent == 0 && res.X != nil {
		t.Fatal("no first-incumbent timestamp recorded")
	}
	if res.FirstIncumbentNodes != 0 {
		t.Fatalf("first incumbent at node %d, want 0 (dive)", res.FirstIncumbentNodes)
	}
}
