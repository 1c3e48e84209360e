package experiments

import (
	"context"
	"fmt"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/randgraph"
	"repro/internal/sched"
)

// kindInfeasible reports a certificate that the instance cannot fit
// the step budget at all (some kind exceeds its total slots).
func kindInfeasible(g *graph.Graph, steps int, a, m, s int) bool {
	k := g.CountKinds()
	return k[graph.OpAdd] > a*steps || k[graph.OpMul] > m*steps || k[graph.OpSub] > s*steps
}

// singlePartitionImpossible reports a certificate that no FU subset
// fitting the device can execute all ops within the budget, proving
// any feasible solution uses >= 2 partitions (comm > 0 for connected
// graphs).
func singlePartitionImpossible(g *graph.Graph, alloc *library.Allocation, dev library.Device, steps int) bool {
	k := g.CountKinds()
	n := alloc.NumUnits()
	for mask := 1; mask < 1<<n; mask++ {
		fg := 0
		cnt := map[graph.OpKind]int{}
		for u := 0; u < n; u++ {
			if mask&(1<<u) == 0 {
				continue
			}
			fg += alloc.Unit(u).Type.FG
			for _, kind := range alloc.Unit(u).Type.Ops {
				cnt[kind]++
			}
		}
		if !dev.Fits(fg) {
			continue
		}
		ok := true
		for kind, need := range k {
			if need > cnt[kind]*steps {
				ok = false
				break
			}
		}
		if ok {
			return false // this subset might work
		}
	}
	return true
}

// TestCalibrate prints, per profile and seed, the heuristic
// feasibility grid over (N, L) used to select the benchmark seeds
// compiled into internal/randgraph. Gated behind TPSYN_PROBE because
// it is a calibration tool, not a correctness test; rerun it when
// changing generator parameters and update paperSeeds accordingly.
func TestCalibrate(t *testing.T) {
	if os.Getenv("TPSYN_PROBE") == "" {
		t.Skip("probe: set TPSYN_PROBE=1")
	}
	dev := Device()
	lib := library.DefaultLibrary()
	profiles := []struct {
		gnum, tasks, ops, a, m, s int
		chain                     float64
		maxN                      int
	}{
		{3, 10, 45, 2, 2, 2, 0.65, 3},
		{5, 10, 65, 2, 2, 2, 0.8, 3},
		{6, 10, 72, 2, 2, 2, 0.8, 3},
	}
	for _, pr := range profiles {
		alloc, err := library.PaperAllocation(lib, pr.a, pr.m, pr.s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("== graph %d profile (%d/%d ops, %d+%d+%d, chain %.2f)\n",
			pr.gnum, pr.tasks, pr.ops, pr.a, pr.m, pr.s, pr.chain)
		shown := 0
		for seed := int64(100 * pr.gnum); seed < int64(100*pr.gnum)+120 && shown < 8; seed++ {
			g, err := randgraph.Generate(randgraph.Config{
				Name: fmt.Sprintf("g%d", pr.gnum), Tasks: pr.tasks, Ops: pr.ops,
				ChainProb: pr.chain}, seed)
			if err != nil {
				continue
			}
			w, _ := sched.ComputeWindows(g, nil)
			grid := ""
			anyFeasible := false
			for L := 0; L <= 2; L++ {
				steps := w.CriticalPath + L
				if kindInfeasible(g, steps, pr.a, pr.m, pr.s) {
					grid += fmt.Sprintf("L%d:INF ", L)
					continue
				}
				cell := fmt.Sprintf("L%d:", L)
				for N := 1; N <= pr.maxN; N++ {
					plan, _, err := sched.Baseline(context.Background(), g, alloc, dev, w, N, L, 0)
					if err != nil || plan == nil {
						cell += "-"
						continue
					}
					anyFeasible = true
					switch {
					case plan.Comm == 0:
						cell += "0"
					case singlePartitionImpossible(g, alloc, dev, steps):
						cell += "!"
					default:
						cell += "+"
					}
				}
				grid += cell + " "
			}
			if anyFeasible {
				k := g.CountKinds()
				fmt.Printf("seed %3d CP=%2d A%d/M%d/S%d %s\n", seed, w.CriticalPath,
					k[graph.OpAdd], k[graph.OpMul], k[graph.OpSub], grid)
				shown++
			}
		}
	}
}
