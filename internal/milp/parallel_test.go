package milp

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// buildRandomMILP generates a random knapsack instance sized so branch
// and bound does real work in both modes but stays fast.
func buildRandomMILP(r *rand.Rand) (values, weights []float64, capacity float64) {
	n := 8 + r.Intn(8)
	values = make([]float64, n)
	weights = make([]float64, n)
	total := 0.0
	for j := 0; j < n; j++ {
		values[j] = float64(1 + r.Intn(20))
		weights[j] = float64(1 + r.Intn(9))
		total += weights[j]
	}
	capacity = math.Floor(total * (0.3 + 0.4*r.Float64()))
	return values, weights, capacity
}

// TestPropertyParallelMatchesSerial is the core determinism contract:
// for random instances, a parallel solve must report the same Status
// and Objective as the serial one — only Nodes/LPIterations may vary.
func TestPropertyParallelMatchesSerial(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		values, weights, capacity := buildRandomMILP(r)
		p1, cols1 := knapsack(values, weights, capacity)
		p2, cols2 := knapsack(values, weights, capacity)
		serial, err := solve(p1, Options{IntVars: cols1, ObjIntegral: true})
		if err != nil {
			return false
		}
		par, err := solve(p2, Options{IntVars: cols2, ObjIntegral: true, Parallelism: 4, ParallelThreshold: -1})
		if err != nil {
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
			if math.Abs(par.BestBound-par.Objective) > 1e-9 {
				t.Logf("seed %d: bound %v != obj %v", seed, par.BestBound, par.Objective)
				return false
			}
			if err := p2.Feasible(par.X, 1e-6); err != nil {
				t.Logf("seed %d: parallel X infeasible: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelProvesInfeasibility(t *testing.T) {
	// parity trap: the whole tree must be searched to prove there is no
	// solution, which exercises subproblem hand-off and completion
	p, cols := parityTrap(13)
	res, err := solve(p, Options{IntVars: cols, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want %v", res.Status, StatusInfeasible)
	}
	p2, cols2 := parityTrap(13)
	ser, err := solve(p2, Options{IntVars: cols2})
	if err != nil {
		t.Fatal(err)
	}
	if ser.Status != res.Status {
		t.Fatalf("serial status %v != parallel %v", ser.Status, res.Status)
	}
}

func TestParallelCancelMidSolve(t *testing.T) {
	p, cols := parityTrap(40)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SolveContext(ctx, p, Options{IntVars: cols, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want %v (nodes=%d)", res.Status, StatusCancelled, res.Nodes)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Nodes == 0 {
		t.Fatal("no nodes explored before cancellation")
	}
}

// TestParallelCancelStress hammers concurrent cancellation while
// workers are mid-subproblem; primarily a -race target.
func TestParallelCancelStress(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		p, cols := parityTrap(40)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(d time.Duration) {
				defer wg.Done()
				time.Sleep(d)
				cancel()
			}(time.Duration(5+3*trial) * time.Millisecond)
		}
		res, err := SolveContext(ctx, p, Options{IntVars: cols, Parallelism: 4, ParallelThreshold: -1})
		wg.Wait()
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != StatusCancelled {
			t.Fatalf("trial %d: status = %v", trial, res.Status)
		}
	}
}

func TestParallelNodeLimitShared(t *testing.T) {
	p, cols := parityTrap(40)
	res, err := solve(p, Options{IntVars: cols, MaxNodes: 200, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNodeLimit {
		t.Fatalf("status = %v, want %v", res.Status, StatusNodeLimit)
	}
	// the counter is global, so the overshoot is bounded by the worker
	// count (each may be past the check when the limit trips), not by
	// workers * MaxNodes as a per-goroutine counter would allow
	if res.Nodes > 200+8 {
		t.Fatalf("nodes = %d: MaxNodes not enforced across workers", res.Nodes)
	}
}

func TestParallelKeepsIncumbentOnLimit(t *testing.T) {
	n := 20
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i], weights[i] = 3, 3
	}
	p, cols := knapsack(values, weights, 25)
	res, err := solve(p, Options{IntVars: cols, MaxNodes: 120, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNodeLimit {
		t.Fatalf("status = %v, want %v", res.Status, StatusNodeLimit)
	}
	if res.X == nil {
		t.Fatal("incumbent dropped on node limit")
	}
	if err := p.Feasible(res.X, 1e-6); err != nil {
		t.Fatalf("incumbent infeasible: %v", err)
	}
	if res.BestBound > res.Objective+1e-9 {
		t.Fatalf("BestBound %v exceeds incumbent %v", res.BestBound, res.Objective)
	}
}

func TestParallelTimeLimitBestBound(t *testing.T) {
	p, cols := parityTrap(40)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, p, Options{IntVars: cols, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusCancelled || res.Status == StatusOptimal {
		t.Fatalf("status = %v after time limit", res.Status)
	}
	// the aggregated best bound must stay a valid lower bound for the
	// (infeasible) problem: anything finite is fine, +Inf is not
	if math.IsInf(res.BestBound, 1) {
		t.Fatalf("BestBound = +Inf")
	}
}

func TestParallelInitialUpperPrunes(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5, 7}
	weights := []float64{2, 3, 2, 5, 1, 2}
	want := bruteKnapsack(values, weights, 8)
	p, cols := knapsack(values, weights, 8)
	// an unbeatable initial upper bound: parallel search must agree with
	// the serial contract and report infeasible-with-nil-X
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true, InitialUpper: -want - 1, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible || res.X != nil {
		t.Fatalf("status=%v X=%v, want infeasible with nil X", res.Status, res.X)
	}
}

// TestParallelSharedBrancher: every steal worker branches with the one
// configured Brancher, so a shared rule must still reach the optimum
// (and, under -race, be read without a data race).
func TestParallelSharedBrancher(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5, 7, 9, 4, 11, 6}
	weights := []float64{2, 3, 2, 5, 1, 2, 3, 1, 4, 2}
	want := bruteKnapsack(values, weights, 12)
	p, cols := knapsack(values, weights, 12)
	res, err := solve(p, Options{IntVars: cols, Brancher: MostFractional(cols), ObjIntegral: true, Parallelism: 4, ParallelThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(-res.Objective-want) > 1e-6 {
		t.Fatalf("status=%v obj=%v want %v", res.Status, -res.Objective, want)
	}
}
