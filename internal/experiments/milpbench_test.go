package experiments

import (
	"flag"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/milp"
)

var minSpeedup = flag.Float64("minspeedup", 0, "fail TestParallelSpeedupFloor when an entry's median serial/parallel speedup is below this floor (0 skips the test)")

// speedupPairs is the number of serial/parallel solve pairs timed per
// suite entry.
const speedupPairs = 5

// TestParallelSpeedupFloor is the parallel search's regression gate:
// every suite entry is solved in serial/parallel pairs, the leg that
// runs first alternating between pairs, and each entry's median
// per-pair speedup (serial time over parallel time) must reach the
// -minspeedup floor. Both legs of every pair must agree on the verdict,
// the equivalence contract of milp.Options.Parallelism. The parallel
// leg only sets the worker count and bypasses the root-size gate, as
// BenchmarkMILPParallel does, so auto mode resolves it to work stealing
// with root cuts and the dive. Skipped unless -minspeedup is set, so
// `go test ./...` never times it while other packages compete for the
// CPUs:
//
//	go test -run TestParallelSpeedupFloor -count=1 -v ./internal/experiments/ -args -minspeedup 0.95
func TestParallelSpeedupFloor(t *testing.T) {
	if *minSpeedup <= 0 {
		t.Skip("run with -args -minspeedup F")
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		t.Fatalf("GOMAXPROCS=%d: a parallel speedup floor needs at least 2 CPUs", workers)
	}
	suite, err := MILPBench()
	if err != nil {
		t.Fatal(err)
	}
	var below []string
	for _, e := range suite {
		par := e.Opt
		par.Search.Parallelism = workers
		par.Search.Threshold = -1
		legs := [2]core.Options{e.Opt, par}
		var speedup, serialMS, parMS, parNodes, parPivots []float64
		var serial *core.Result
		for i := 0; i < speedupPairs; i++ {
			var took [2]time.Duration
			var res [2]*core.Result
			for j := 0; j < 2; j++ {
				leg := (i + j) % 2
				start := time.Now()
				r, err := core.SolveInstance(e.Inst, legs[leg])
				took[leg] = time.Since(start)
				if err != nil {
					t.Fatalf("%s leg %d: %v", e.Name, leg, err)
				}
				res[leg] = r
			}
			s, p := res[0], res[1]
			if s.Feasible != p.Feasible || s.Optimal != p.Optimal || comm(s) != comm(p) {
				t.Fatalf("%s pair %d: serial (feas=%v opt=%v comm=%d) != parallel (feas=%v opt=%v comm=%d)",
					e.Name, i, s.Feasible, s.Optimal, comm(s), p.Feasible, p.Optimal, comm(p))
			}
			if p.SearchMode != milp.ModeSteal.String() {
				t.Fatalf("%s pair %d: parallel leg ran %q, want %q", e.Name, i, p.SearchMode, milp.ModeSteal)
			}
			serial = s
			speedup = append(speedup, float64(took[0])/float64(took[1]))
			serialMS = append(serialMS, took[0].Seconds()*1e3)
			parMS = append(parMS, took[1].Seconds()*1e3)
			parNodes = append(parNodes, float64(p.Nodes))
			parPivots = append(parPivots, float64(p.LPIterations))
		}
		med := median(speedup)
		t.Logf("%-10s serial %8.1f ms %5d nodes %7d pivots | parallel %8.1f ms %7.0f nodes %7.0f pivots | speedup %.2fx",
			e.Name, median(serialMS), serial.Nodes, serial.LPIterations,
			median(parMS), median(parNodes), median(parPivots), med)
		if med < *minSpeedup {
			below = append(below, fmt.Sprintf("%s %.2fx", e.Name, med))
		}
	}
	if len(below) > 0 {
		t.Fatalf("median speedup below the %.2fx floor: %s", *minSpeedup, strings.Join(below, ", "))
	}
}

// comm is a result's communication cost, 0 without a solution.
func comm(r *core.Result) int {
	if !r.Feasible {
		return 0
	}
	return r.Solution.Comm
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
