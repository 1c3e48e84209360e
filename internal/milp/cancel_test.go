package milp

import (
	"context"
	"testing"
	"time"

	"repro/internal/lp"
)

// parityTrap builds an infeasible problem whose LP relaxation is
// feasible everywhere: sum 2*x_i == 25 over binaries. Every integer
// assignment has an even left side, but fractional points satisfy the
// row exactly, so branch and bound must grind through an exponential
// tree before it can prove infeasibility — a reliable way to keep the
// solver busy for cancellation and limit tests.
func parityTrap(n int) (*lp.Problem, []int) {
	p := &lp.Problem{}
	cols := make([]int, n)
	coef := make([]float64, n)
	for i := range cols {
		cols[i] = p.AddBinary(lp.Name("x"), 0)
		coef[i] = 2
	}
	_ = p.AddEQ(lp.Name("odd"), cols, coef, 25)
	return p, cols
}

func TestCancelReturnsStatusCancelled(t *testing.T) {
	p, cols := parityTrap(40)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SolveContext(ctx, p, Options{IntVars: cols})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want %v (nodes=%d)", res.Status, StatusCancelled, res.Nodes)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if res.Nodes == 0 {
		t.Fatalf("no nodes explored before cancellation")
	}
}

func TestDeadlineIsNotCancellation(t *testing.T) {
	// an expired deadline must keep reporting the limit statuses, not
	// StatusCancelled: only explicit caller cancellation maps there.
	p, cols := parityTrap(40)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, p, Options{IntVars: cols})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusCancelled || res.Status == StatusOptimal || res.Status == StatusInfeasible {
		t.Fatalf("status = %v after time limit", res.Status)
	}
}

func TestNodeLimitStatus(t *testing.T) {
	p, cols := parityTrap(40)
	res, err := solve(p, Options{IntVars: cols, MaxNodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNodeLimit {
		t.Fatalf("status = %v, want %v", res.Status, StatusNodeLimit)
	}
	if res.Nodes > 50+1 {
		t.Fatalf("nodes = %d exceeds MaxNodes", res.Nodes)
	}
}

func TestNodeLimitKeepsIncumbent(t *testing.T) {
	// interrupt a knapsack after it has an incumbent: the documented
	// contract is that Result.X still holds the best solution found.
	// All values equal all weights, and no subset hits the capacity
	// exactly, so the LP bound never prunes: the first dive yields an
	// incumbent and the tree keeps growing until the node limit.
	n := 20
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i], weights[i] = 3, 3
	}
	p, cols := knapsack(values, weights, 25)
	res, err := solve(p, Options{IntVars: cols, MaxNodes: 100})
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
}

func TestPreCancelledContext(t *testing.T) {
	p, cols := parityTrap(12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveContext(ctx, p, Options{IntVars: cols})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want %v", res.Status, StatusCancelled)
	}
}

// deadContextMaxAllocs bounds the allocations of a solve whose context
// is done before it starts: the integrality flags, the shared search
// state, the Status handle's live entry and worker phases, and the
// result.
const deadContextMaxAllocs = 5

// A solve whose context is past its deadline before it starts returns
// the limit status without building the root solver, and a Status
// handle still attaches and finishes.
func TestDeadContextBuildsNoSolver(t *testing.T) {
	p := &lp.Problem{}
	cols := make([]int, 2000)
	for i := range cols {
		cols[i] = p.AddBinary(lp.Name("x"), 1)
		if i > 0 {
			if err := p.AddLE(lp.Name("pair"), []int{cols[i-1], cols[i]}, []float64{1, 1}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st := NewSearchStatus()
	opt := Options{IntVars: cols, Status: st}
	res, err := SolveContext(ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusLimit || res.Nodes != 0 || res.LPIterations != 0 {
		t.Fatalf("status %v after %d nodes and %d pivots, want %v before any", res.Status, res.Nodes, res.LPIterations, StatusLimit)
	}
	if snap, ok := st.Snapshot(); !ok || snap.Running {
		t.Fatalf("status handle attached=%v running=%v, want attached and finished", ok, snap.Running)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := SolveContext(ctx, p, opt); err != nil {
			t.Fatal(err)
		}
	})
	build := testing.AllocsPerRun(3, func() {
		if _, err := lp.NewSolver(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > deadContextMaxAllocs {
		t.Fatalf("a dead-context solve allocates %.0f times, want at most %d (building the root solver alone allocates %.0f)",
			allocs, deadContextMaxAllocs, build)
	}
	t.Logf("a dead-context solve allocates %.0f times; building the root solver alone allocates %.0f", allocs, build)
}
