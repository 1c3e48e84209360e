package lp

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCloneIndependent(t *testing.T) {
	p := &Problem{}
	x := p.AddVar(Name("x"), -3, 0, 4)
	y := p.AddVar(Name("y"), -5, 0, 4)
	_ = p.AddLE(Name("cap"), []int{x, y}, []float64{1, 2}, 8)
	s := solveFresh(t, p)
	want := s.Objective()

	c := s.Clone()
	c.SetBound(x, 0, 0)
	if st := c.ReOptimize(); st != StatusOptimal {
		t.Fatalf("clone status = %v", st)
	}
	if c.Objective() < want-1e-9 {
		t.Fatalf("tightened clone improved: %v < %v", c.Objective(), want)
	}
	// the parent must not see the clone's bound change
	if lo, hi := s.Bound(x); lo != 0 || hi != 4 {
		t.Fatalf("parent bounds mutated: [%v,%v]", lo, hi)
	}
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("parent status = %v", st)
	}
	if math.Abs(s.Objective()-want) > 1e-9 {
		t.Fatalf("parent objective drifted: %v != %v", s.Objective(), want)
	}
}

func TestCloneConcurrentSolves(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p, _ := randomPrimalDual(r)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != StatusOptimal {
		t.Skip("base not optimal")
	}
	want := s.Objective()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		c := s.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				j := k % p.NumVars()
				lo, hi := c.Bound(j)
				c.SetBound(j, lo, lo)
				c.ReOptimize()
				c.SetBound(j, lo, hi)
				if st := c.ReOptimize(); st != StatusOptimal {
					t.Errorf("clone status = %v", st)
					return
				}
				if math.Abs(c.Objective()-want) > 1e-6*(1+math.Abs(want)) {
					t.Errorf("clone objective %v != %v", c.Objective(), want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSnapshotRestore(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p, _ := randomPrimalDual(r)
	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() != StatusOptimal {
		t.Skip("base not optimal")
	}
	want := s.Objective()
	wantX := s.Solution()
	snap := s.Snapshot()

	// wander away from the snapshot state
	for j := 0; j < p.NumVars(); j++ {
		lo, _ := s.Bound(j)
		s.SetBound(j, lo, lo)
	}
	s.ReOptimize()

	s.Restore(snap)
	if s.Status() != StatusOptimal {
		t.Fatalf("restored status = %v", s.Status())
	}
	if math.Abs(s.Objective()-want) > 1e-12 {
		t.Fatalf("restored objective %v != %v", s.Objective(), want)
	}
	for j, v := range s.Solution() {
		if math.Abs(v-wantX[j]) > 1e-12 {
			t.Fatalf("restored x[%d] = %v, want %v", j, v, wantX[j])
		}
	}
	// a restored optimal basis re-optimizes in zero pivots
	before := s.Iterations
	if st := s.ReOptimize(); st != StatusOptimal {
		t.Fatalf("re-optimize after restore: %v", st)
	}
	if s.Iterations != before {
		t.Fatalf("restore lost the optimal basis: %d extra pivots", s.Iterations-before)
	}
}

func TestRestoreDimensionMismatchPanics(t *testing.T) {
	p1 := &Problem{}
	p1.AddVar(Name("x"), 1, 0, 1)
	p2 := &Problem{}
	p2.AddVar(Name("x"), 1, 0, 1)
	p2.AddVar(Name("y"), 1, 0, 1)
	s1, _ := NewSolver(p1)
	s2, _ := NewSolver(p2)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore across dimensions did not panic")
		}
	}()
	s2.Restore(s1.Snapshot())
}

// TestPropertyCloneWarmStartMatchesFresh fixes bounds on a clone and
// checks the warm-started result against a cold solver on the same
// problem — the exact access pattern of a parallel B&B worker.
func TestPropertyCloneWarmStartMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		primal, _ := randomPrimalDual(r)
		s, err := NewSolver(primal)
		if err != nil {
			return false
		}
		if s.Solve() != StatusOptimal {
			return false
		}
		c := s.Clone()
		snap := c.Snapshot()
		for trial := 0; trial < 3; trial++ {
			c.Restore(snap)
			for k := 0; k < 1+r.Intn(3); k++ {
				j := r.Intn(primal.NumVars())
				lo, hi := c.Bound(j)
				if hi-lo < 1 {
					continue
				}
				if r.Intn(2) == 0 {
					c.SetBound(j, lo, lo)
				} else {
					c.SetBound(j, hi, hi)
				}
			}
			st := c.ReOptimize()
			p2, _ := randomPrimalDual(rand.New(rand.NewSource(seed)))
			for j := 0; j < p2.NumVars(); j++ {
				p2.lo[j], p2.hi[j] = c.Bound(j)
			}
			s2, err := NewSolver(p2)
			if err != nil {
				return false
			}
			if st2 := s2.Solve(); st != st2 {
				return false
			}
			if st != StatusOptimal {
				continue
			}
			if err := p2.Feasible(c.Solution(), 1e-6); err != nil {
				return false
			}
			if math.Abs(c.Objective()-s2.Objective()) > 1e-5*(1+math.Abs(s2.Objective())) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPartialPricingCertifiesOptimality guards the rotating-
// window fallback: whenever the solver reports optimal, the final
// basis must actually be primal and dual feasible — i.e. partial
// pricing may change the pivot sequence but never terminate early.
func TestPropertyPartialPricingCertifiesOptimality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		primal, _ := randomPrimalDual(r)
		s, err := NewSolver(primal)
		if err != nil {
			return false
		}
		if s.Solve() != StatusOptimal {
			return false
		}
		if !s.primalFeasible() || !s.dualFeasible() {
			return false
		}
		return residual(s) <= 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// storeRows prints every row of a store: its range and its (column,
// value bits) entries.
func storeRows(rs *rowStore) []string {
	out := make([]string, rs.len())
	for i := range out {
		idx, val := rs.row(i)
		out[i] = fmt.Sprintf("[%v,%v]", rs.lo[i], rs.hi[i])
		for k, j := range idx {
			out[i] += fmt.Sprintf(" %d:%x", j, math.Float64bits(val[k]))
		}
	}
	return out
}

// rowsOf prints every row of p, its key first.
func rowsOf(p *Problem) []string {
	out := storeRows(&p.rows)
	for i := range out {
		out[i] = p.RowName(i) + " " + out[i]
	}
	return out
}

// TestSharedRowsSurviveCloneAndPresolve pins the row store's sharing
// contract. A Clone and a Solver read their parent's rows in place, so
// AddRow and Presolve on the clone must leave the parent's rows as
// they were, a row the parent adds later must land neither in the
// clone nor over a cut its solver appended, cuts on a solver and its
// clone must stay apart, and a Presolve of the parent must leave the
// solver reading the rows it had.
func TestSharedRowsSurviveCloneAndPresolve(t *testing.T) {
	p := &Problem{}
	for j := 0; j < 4; j++ {
		p.AddVar(Name(fmt.Sprintf("x%d", j)), 1, 0, 10)
	}
	add := func(q *Problem, name string, idx []int, coef []float64, lo, hi float64) {
		t.Helper()
		if err := q.AddRow(Name(name), idx, coef, lo, hi); err != nil {
			t.Fatal(err)
		}
	}
	add(p, "single", []int{2}, []float64{2}, -Inf, 8)                  // presolve: a bound, dropped
	add(p, "slack", []int{0, 1}, []float64{1, 1}, -Inf, 100)           // presolve: never binds, dropped
	add(p, "tight", []int{1, 0, 3}, []float64{1, 2, 1}, 3, 12)         // kept
	add(p, "eq", []int{3, 2, 3}, []float64{1, 1, 0.5}, 4, 4)           // kept
	add(p, "split", []int{0, 1, 2, 3}, []float64{1, -1, 1, -1}, -4, 4) // kept

	c := p.Clone()
	add(c, "clone1", []int{0, 2}, []float64{1, 1}, 1, Inf)
	add(p, "parent1", []int{1, 3}, []float64{3, 3}, -Inf, 20)
	if got := rowsOf(c); len(got) != 6 || got[5] != "clone1 [1,+Inf] 0:3ff0000000000000 2:3ff0000000000000" {
		t.Fatalf("the parent's AddRow reached the clone: %q", got)
	}
	parent := rowsOf(p)
	if res := c.Presolve(); res.RowsRemoved == 0 || res.Infeasible {
		t.Fatalf("clone presolve %+v, want rows removed", res)
	}
	if got := rowsOf(p); fmt.Sprint(got) != fmt.Sprint(parent) {
		t.Fatalf("AddRow and Presolve on a clone changed the parent's rows:\n got %q\nwant %q", got, parent)
	}

	s, err := NewSolver(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRows([]CutRow{{Name: "cut", Idx: []int{3, 0}, Val: []float64{1, 1}, Lo: -Inf, Hi: 15}}); err != nil {
		t.Fatal(err)
	}
	add(p, "parent2", []int{0, 1}, []float64{5, 5}, -Inf, 30)
	built := storeRows(&s.rows)
	if got := built[len(built)-1]; len(built) != 7 || got != "[-Inf,15] 0:3ff0000000000000 3:3ff0000000000000" {
		t.Fatalf("the parent's AddRow reached its solver's cut: %q", built)
	}
	sc := s.Clone()
	cut := func(s *Solver, hi float64) {
		t.Helper()
		if err := s.AppendRows([]CutRow{{Name: "cut", Idx: []int{1}, Val: []float64{1}, Lo: -Inf, Hi: hi}}); err != nil {
			t.Fatal(err)
		}
	}
	cut(sc, 6)
	cut(s, 7)
	if got := storeRows(&sc.rows); len(got) != 8 || got[7] != "[-Inf,6] 1:3ff0000000000000" {
		t.Fatalf("a solver's cut reached its clone: %q", got[7:])
	}
	built = storeRows(&s.rows)
	if res := p.Presolve(); res.RowsRemoved == 0 {
		t.Fatalf("parent presolve %+v, want rows removed", res)
	}
	if got := storeRows(&s.rows); fmt.Sprint(got) != fmt.Sprint(built) {
		t.Fatalf("a parent's Presolve changed its solver's rows:\n got %q\nwant %q", got, built)
	}
}
