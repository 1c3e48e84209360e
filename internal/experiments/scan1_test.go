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

func TestScanProfile1(t *testing.T) {
	if os.Getenv("TPSYN_PROBE") == "" {
		t.Skip("probe")
	}
	alloc, _ := library.PaperAllocation(library.DefaultLibrary(), 2, 2, 1)
	dev := Device()
	found := 0
	for seed := int64(100); seed < 500 && found < 12; seed++ {
		g, err := randgraph.Generate(randgraph.Config{Name: "g1", Tasks: 5, Ops: 22}, seed)
		if err != nil {
			continue
		}
		w, _ := sched.ComputeWindows(g, nil)
		// build the grid: for L=0..4, N=1..3 heuristic feasibility
		grid := ""
		interesting := false
		forcedAtSomeL := false
		singleAtSomeL := false
		infAtL0 := kindInfeasible(g, w.CriticalPath, 2, 2, 1)
		for L := 0; L <= 4; L++ {
			steps := w.CriticalPath + L
			if kindInfeasible(g, steps, 2, 2, 1) {
				grid += fmt.Sprintf("L%d:INF ", L)
				continue
			}
			cell := fmt.Sprintf("L%d:", L)
			for N := 1; N <= 3; N++ {
				plan, _, err := sched.Baseline(context.Background(), g, alloc, dev, w, N, L, 0)
				if err != nil || plan == nil {
					cell += "-"
					continue
				}
				if plan.Comm == 0 {
					cell += "0"
					singleAtSomeL = true
				} else if singlePartitionImpossible(g, alloc, dev, steps) {
					cell += "!"
					forcedAtSomeL = true
				} else {
					cell += "+"
				}
			}
			grid += cell + " "
		}
		interesting = infAtL0 && forcedAtSomeL && singleAtSomeL
		if forcedAtSomeL {
			fmt.Printf("seed %3d CP=%d %v %s int=%v\n", seed, w.CriticalPath, counts(g), grid, interesting)
			found++
		}
	}
}

func counts(g *graph.Graph) string {
	k := g.CountKinds()
	return fmt.Sprintf("A%d/M%d/S%d", k[graph.OpAdd], k[graph.OpMul], k[graph.OpSub])
}
