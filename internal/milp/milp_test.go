package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lp"
	"repro/internal/trace"
)

// solve runs branch and bound on p without external cancellation.
func solve(p *lp.Problem, opt Options) (*Result, error) {
	return SolveContext(context.Background(), p, opt)
}

// ringEvents returns every event r still holds.
func ringEvents(r *trace.Ring) []trace.Event {
	evs, _ := r.Since(0)
	return evs
}

// knapsack builds max sum v_j x_j s.t. sum w_j x_j <= cap as a
// minimization problem (costs negated).
func knapsack(values, weights []float64, cap float64) (*lp.Problem, []int) {
	p := &lp.Problem{}
	var cols []int
	for j := range values {
		cols = append(cols, p.AddBinary(lp.Name("x"), -values[j]))
	}
	_ = p.AddLE(lp.Name("cap"), cols, weights, cap)
	return p, cols
}

// bruteKnapsack returns the optimal (maximal) value by enumeration.
func bruteKnapsack(values, weights []float64, cap float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		v, w := 0.0, 0.0
		for j := 0; j < n; j++ {
			if mask&(1<<j) != 0 {
				v += values[j]
				w += weights[j]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{10, 13, 8, 21, 5}
	weights := []float64{2, 3, 2, 5, 1}
	p, cols := knapsack(values, weights, 7)
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteKnapsack(values, weights, 7)
	if math.Abs(-res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", -res.Objective, want)
	}
	// solution must be integral and feasible
	if err := p.Feasible(res.X, 1e-6); err != nil {
		t.Fatal(err)
	}
	for _, j := range cols {
		if f := math.Abs(res.X[j] - math.Round(res.X[j])); f > 1e-6 {
			t.Fatalf("x[%d] = %v not integral", j, res.X[j])
		}
	}
}

func TestInfeasibleMILP(t *testing.T) {
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), 1)
	y := p.AddBinary(lp.Name("y"), 1)
	// x + y >= 3 is impossible for binaries
	_ = p.AddGE(lp.Name("g"), []int{x, y}, []float64{1, 1}, 3)
	res, err := solve(p, Options{IntVars: []int{x, y}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v", res.Status)
	}
}

// fractional LP, integral ILP: LP optimum 0.5/0.5, ILP must pick a vertex.
func TestIntegralityGap(t *testing.T) {
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), -1)
	y := p.AddBinary(lp.Name("y"), -1)
	_ = p.AddLE(lp.Name("c"), []int{x, y}, []float64{2, 2}, 2) // x + y <= 1 effectively
	res, err := solve(p, Options{IntVars: []int{x, y}, ObjIntegral: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-1)) > 1e-9 {
		t.Fatalf("objective = %v, want -1", res.Objective)
	}
}

func TestAllBranchersAgree(t *testing.T) {
	values := []float64{7, 2, 9, 4, 6, 3, 8}
	weights := []float64{3, 1, 4, 2, 3, 1, 4}
	want := bruteKnapsack(values, weights, 9)
	p, cols := knapsack(values, weights, 9)
	branchers := map[string]Brancher{
		"default(nil)": nil,
		"first-frac":   FirstFractional(cols),
		"most-frac":    MostFractional(cols),
	}
	for name, br := range branchers {
		res, err := solve(p, Options{IntVars: cols, Brancher: br, ObjIntegral: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != StatusOptimal {
			t.Fatalf("%s: status = %v", name, res.Status)
		}
		if math.Abs(-res.Objective-want) > 1e-6 {
			t.Fatalf("%s: objective = %v, want %v", name, -res.Objective, want)
		}
	}
}

func TestInitialUpperPrunes(t *testing.T) {
	values := []float64{5, 4, 3}
	weights := []float64{2, 2, 2}
	p, cols := knapsack(values, weights, 4)
	// optimum is -9; an initial upper of -9 means nothing strictly
	// better exists -> StatusInfeasible with nil X.
	res, err := solve(p, Options{IntVars: cols, ObjIntegral: true, InitialUpper: -9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible || res.X != nil {
		t.Fatalf("status = %v X=%v, want infeasible/nil", res.Status, res.X)
	}
	// a looser initial upper still lets the solver find -9.
	res, err = solve(p, Options{IntVars: cols, ObjIntegral: true, InitialUpper: -8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-(-9)) > 1e-9 {
		t.Fatalf("got %v obj %v, want optimal -9", res.Status, res.Objective)
	}
}

func TestNodeLimit(t *testing.T) {
	// a knapsack large enough to need more than 2 nodes
	values := []float64{10, 13, 8, 21, 5, 7, 9, 12}
	weights := []float64{2, 3, 2, 5, 1, 2, 3, 4}
	p, cols := knapsack(values, weights, 10)
	res, err := solve(p, Options{IntVars: cols, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == StatusOptimal {
		t.Fatalf("optimal claimed under MaxNodes=2 (nodes=%d)", res.Nodes)
	}
}

func TestTimeLimitRespected(t *testing.T) {
	values := make([]float64, 24)
	weights := make([]float64, 24)
	r := rand.New(rand.NewSource(7))
	for i := range values {
		values[i] = 1 + float64(r.Intn(100))
		weights[i] = 1 + float64(r.Intn(50))
	}
	p, cols := knapsack(values, weights, 200)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := SolveContext(ctx, p, Options{IntVars: cols})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("time limit ignored: ran %v", el)
	}
	_ = res
}

func TestOptionValidation(t *testing.T) {
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), 1)
	if _, err := solve(p, Options{}); err == nil {
		t.Error("empty IntVars accepted")
	}
	if _, err := solve(p, Options{IntVars: []int{5}}); err == nil {
		t.Error("out-of-range int var accepted")
	}
	p2 := &lp.Problem{}
	y := p2.AddVar(lp.Name("y"), 1, 0, 3)
	if _, err := solve(p2, Options{IntVars: []int{y}}); err == nil {
		t.Error("non-binary int var accepted")
	}
	_ = x
}

func TestUnboundedRejected(t *testing.T) {
	p := &lp.Problem{}
	x := p.AddBinary(lp.Name("x"), 0)
	f := p.AddVar(lp.Name("f"), -1, 0, lp.Inf)
	_ = p.AddGE(lp.Name("g"), []int{x, f}, []float64{1, 1}, 0)
	if _, err := solve(p, Options{IntVars: []int{x}}); err == nil {
		t.Error("unbounded relaxation accepted")
	}
}

// Property: MILP optimum equals brute force on random small knapsacks
// with an extra side constraint.
func TestPropertyMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(6)
		values := make([]float64, n)
		weights := make([]float64, n)
		conflictA, conflictB := -1, -1
		for j := range values {
			values[j] = float64(1 + r.Intn(20))
			weights[j] = float64(1 + r.Intn(8))
		}
		if n >= 2 {
			conflictA, conflictB = r.Intn(n), r.Intn(n)
			if conflictA == conflictB {
				conflictB = (conflictA + 1) % n
			}
		}
		cap := 1 + float64(r.Intn(20))
		p, cols := knapsack(values, weights, cap)
		if conflictA >= 0 {
			_ = p.AddLE(lp.Name("conflict"), []int{cols[conflictA], cols[conflictB]}, []float64{1, 1}, 1)
		}
		res, err := solve(p, Options{IntVars: cols, ObjIntegral: true})
		if err != nil || res.Status != StatusOptimal {
			return false
		}
		// brute force with the conflict constraint
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			if conflictA >= 0 && mask&(1<<conflictA) != 0 && mask&(1<<conflictB) != 0 {
				continue
			}
			v, w := 0.0, 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					v += values[j]
					w += weights[j]
				}
			}
			if w <= cap && v > best {
				best = v
			}
		}
		if math.Abs(-res.Objective-best) > 1e-6 {
			return false
		}
		return p.Feasible(res.X, 1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusStrings(t *testing.T) {
	if StatusOptimal.String() != "optimal" || StatusInfeasible.String() != "infeasible" ||
		StatusFeasible.String() != "feasible" || StatusLimit.String() != "limit" {
		t.Fatal("bad status strings")
	}
}

func TestProbeIncumbentAndPrune(t *testing.T) {
	// max x0+x1 s.t. x0+x1 <= 1 (as min of negation); optimum -1.
	p := &lp.Problem{}
	x0 := p.AddBinary(lp.Name("x0"), -1)
	x1 := p.AddBinary(lp.Name("x1"), -1)
	_ = p.AddLE(lp.Name("c"), []int{x0, x1}, []float64{1, 1}, 1)
	probed := 0
	probe := func(x []float64, bound func(int) (float64, float64)) ([]float64, bool) {
		probed++
		// hand the solver a known optimal point
		return []float64{1, 0}, false
	}
	res, err := solve(p, Options{IntVars: []int{x0, x1}, ObjIntegral: true, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-(-1)) > 1e-9 {
		t.Fatalf("status=%v obj=%v", res.Status, res.Objective)
	}
	if probed == 0 {
		t.Fatal("probe never called")
	}
	if res.Nodes != 1 {
		t.Fatalf("nodes = %d, want 1 (root fathomed by probe)", res.Nodes)
	}
}

func TestProbeExhaustedPrunes(t *testing.T) {
	// feasible problem, but a probe that declares every node exhausted
	// forces an (incorrectly) empty search: the solver must trust it.
	p := &lp.Problem{}
	x0 := p.AddBinary(lp.Name("x0"), -1)
	_ = p.AddLE(lp.Name("c"), []int{x0}, []float64{1}, 1)
	probe := func(x []float64, bound func(int) (float64, float64)) ([]float64, bool) {
		return nil, true
	}
	res, err := solve(p, Options{IntVars: []int{x0}, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible (probe pruned everything)", res.Status)
	}
}

func TestProbeRejectsBadCandidate(t *testing.T) {
	p := &lp.Problem{}
	x0 := p.AddBinary(lp.Name("x0"), -1)
	x1 := p.AddBinary(lp.Name("x1"), -1)
	_ = p.AddLE(lp.Name("c"), []int{x0, x1}, []float64{1, 1}, 1)
	probe := func(x []float64, bound func(int) (float64, float64)) ([]float64, bool) {
		return []float64{1, 1}, false // violates the constraint
	}
	res, err := solve(p, Options{IntVars: []int{x0, x1}, ObjIntegral: true, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	// the bogus candidate must be ignored; branching finds the optimum
	if res.Status != StatusOptimal || math.Abs(res.Objective-(-1)) > 1e-9 {
		t.Fatalf("status=%v obj=%v", res.Status, res.Objective)
	}
}

func TestProbeSeesBranchingBounds(t *testing.T) {
	sawFixed := false
	p2 := &lp.Problem{}
	y0 := p2.AddBinary(lp.Name("y0"), -1)
	y1 := p2.AddBinary(lp.Name("y1"), -1)
	_ = p2.AddLE(lp.Name("c"), []int{y0, y1}, []float64{2, 2}, 3) // y0+y1 <= 1.5: fractional vertex
	res, err := solve(p2, Options{
		IntVars:  []int{y0, y1},
		Brancher: FirstFractional([]int{y0, y1}),
		Probe: func(x []float64, bound func(int) (float64, float64)) ([]float64, bool) {
			lo, hi := bound(y0)
			if hi-lo < 1e-9 {
				sawFixed = true
			}
			return nil, false
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status %v", res.Status)
	}
	if !sawFixed {
		t.Fatal("probe never observed a branching-fixed bound")
	}
}
