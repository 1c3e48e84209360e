// Command tpsyn runs optimal temporal partitioning and synthesis on a
// task-graph specification, reproducing the flow of Kaul & Vemuri
// (DATE 1998): estimate the number of segments, build the 0-1 ILP,
// solve it by branch and bound, and report the partitioned, scheduled
// and bound design.
//
// Usage:
//
//	tpgen -paper 1 | tpsyn -n 3 -l 1 -adders 2 -muls 2 -subs 1
//	tpsyn -graph spec.tg -device xc4025 -vhdl -sim
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/rpsim"
	"repro/internal/rtl"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	var (
		path     = flag.String("graph", "-", "specification file (- for stdin)")
		n        = flag.Int("n", 0, "number of temporal segments (0 = estimate)")
		l        = flag.Int("l", 0, "latency relaxation over the ALAP bound")
		adders   = flag.Int("adders", 2, "adders in the exploration set")
		muls     = flag.Int("muls", 2, "multipliers in the exploration set")
		subs     = flag.Int("subs", 1, "subtracters in the exploration set")
		device   = flag.String("device", "xc4010", "target device: xc4010 or xc4025")
		capacity = flag.Int("capacity", 0, "override device FG capacity")
		mem      = flag.Int("mem", -1, "override scratch memory size")
		alpha    = flag.Float64("alpha", 0, "override logic-optimization factor")
		lin      = flag.String("lin", "glover", "linearization: glover or fortet")
		branch   = flag.String("branch", "paper", "branching: paper, first or most")
		loose    = flag.Bool("untightened", false, "drop the tightening cuts (28)-(30),(32)")
		perProd  = flag.Bool("wperproduct", false, "exact per-product w linearization (eqs. 4-5)")
		timeout  = flag.Duration("timeout", 60*time.Second, "solver time limit (matches the tpserve default)")
		parallel = flag.Int("parallel", 0, "branch-and-bound workers (0 or 1 = serial)")
		cuts     = flag.String("cuts", "auto", "root cover-cut strengthening: auto, on or off")
		dive     = flag.String("dive", "auto", "root diving heuristic for an early incumbent: auto, on or off")
		traceOut = flag.String("trace", "", "stream solver events as NDJSON to this file (- for stderr)")
		record   = flag.String("record", "", "capture the search tree as a flight recording to this file for cmd/tpreplay (gzipped when the name ends in .gz)")
		certify  = flag.Bool("certify", false, "re-verify the verdict in exact rational arithmetic and print the certificate summary (exit 3 on a failed certificate)")
		vhdl     = flag.Bool("vhdl", false, "emit per-segment RTL netlists")
		sim      = flag.Bool("sim", false, "simulate the solution on the device model")
		vcd      = flag.String("vcd", "", "write a VCD waveform of the simulated execution to this file")
		svg      = flag.String("svg", "", "write a Gantt chart of the schedule to this SVG file")
		mps      = flag.String("mps", "", "dump the generated ILP in MPS format to this file")
		lpOut    = flag.String("lp", "", "dump the generated ILP in CPLEX LP format to this file")
		jsonOut  = flag.Bool("json", false, "print the solution as JSON")
		quiet    = flag.Bool("q", false, "suppress the schedule report")
	)
	flag.Parse()

	g, err := readGraph(*path)
	fail(err)

	alloc, err := library.PaperAllocation(library.DefaultLibrary(), *adders, *muls, *subs)
	fail(err)

	dev := library.XC4010()
	if *device == "xc4025" {
		dev = library.XC4025()
	} else if *device != "xc4010" {
		fail(fmt.Errorf("unknown device %q", *device))
	}
	if *capacity > 0 {
		dev.CapacityFG = *capacity
	}
	if *mem >= 0 {
		dev.ScratchMem = *mem
	}
	if *alpha > 0 {
		dev.Alpha = *alpha
	}

	opt := core.Options{
		N:           *n,
		L:           *l,
		Tightened:   !*loose,
		WPerProduct: *perProd,
		TimeLimit:   *timeout,
		Search:      core.SearchOptions{Parallelism: *parallel},
		Certify:     *certify,
	}
	opt.Linearization, err = core.ParseLinearization(*lin)
	fail(err)
	opt.Search.Branch, err = core.ParseBranchRule(*branch)
	fail(err)
	opt.Search.Cuts, err = core.ParseToggle(*cuts)
	fail(err)
	opt.Search.Dive, err = core.ParseToggle(*dive)
	fail(err)
	if *traceOut != "" {
		var w io.Writer = os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			fail(err)
			defer f.Close()
			w = f
		}
		opt.Trace = trace.New(trace.NewWriterSink(w))
	}
	if *record != "" {
		opt.Record = trace.NewRecorder(0)
		opt.Record.SetLabel(g.Name)
	}

	inst := core.Instance{Graph: g, Alloc: alloc, Device: dev}
	m, err := core.Build(inst, opt)
	fail(err)
	st := m.Stats()
	fmt.Printf("model: %d variables, %d constraints (%d nonzeros), N=%d, L=%d\n",
		st.Vars, st.Rows, st.NNZ, m.N, opt.L)

	if *mps != "" {
		f, err := os.Create(*mps)
		fail(err)
		fail(m.P.WriteMPS(f, g.Name))
		fail(f.Close())
		fmt.Printf("mps: model written to %s\n", *mps)
	}
	if *lpOut != "" {
		f, err := os.Create(*lpOut)
		fail(err)
		fail(m.P.WriteLP(f, g.Name))
		fail(f.Close())
		fmt.Printf("lp: model written to %s\n", *lpOut)
	}

	res, err := m.SolveContext(context.Background())
	fail(err)
	fmt.Printf("solve: %d nodes, %d LP pivots, %v\n", res.Nodes, res.LPIterations, res.Runtime.Round(time.Millisecond))
	if res.SearchMode != "" && res.SearchMode != "serial" || res.CutsApplied > 0 {
		fmt.Printf("search: mode=%s", res.SearchMode)
		if res.Steals > 0 {
			fmt.Printf(", %d steals", res.Steals)
		}
		if res.CutsApplied > 0 {
			fmt.Printf(", %d root cuts", res.CutsApplied)
		}
		if res.TimeToFirstIncumbent > 0 {
			fmt.Printf(", first incumbent @%d nodes/%v",
				res.FirstIncumbentNodes, res.TimeToFirstIncumbent.Round(time.Millisecond))
		}
		fmt.Println()
	}
	if *record != "" {
		// written before the infeasible exit below: a recording of a
		// failed search is exactly what tpreplay is for
		f, err := os.Create(*record)
		fail(err)
		fail(opt.Record.Snapshot().Encode(f, strings.HasSuffix(*record, ".gz")))
		fail(f.Close())
		fmt.Printf("record: search recording written to %s\n", *record)
	}
	if *certify {
		// printed (and exit-coded) before the infeasible exit below:
		// an infeasibility verdict is exactly what needs certifying
		cert := res.Certificate
		if cert == nil {
			fmt.Println("certify: no certificate — the outcome carried nothing certifiable")
		} else {
			fmt.Printf("certify: %s\n", cert.Summary())
			for _, ch := range cert.Checks {
				mark := "ok"
				if !ch.OK {
					mark = "FAIL"
				}
				fmt.Printf("certify:   %-24s %-4s %s\n", ch.Name, mark, ch.Detail)
			}
			if !cert.Valid {
				fmt.Fprintln(os.Stderr, "tpsyn: certificate INVALID — the solver's verdict failed exact re-verification")
				os.Exit(3)
			}
		}
	}
	if !res.Feasible {
		if res.Optimal {
			fmt.Println("result: infeasible — relax -l or increase -n")
		} else {
			fmt.Println("result: no solution found within the time limit")
		}
		os.Exit(2)
	}
	if !res.Optimal {
		fmt.Println("result: feasible (time limit hit before the optimality proof)")
	}
	sol := res.Solution
	fmt.Printf("result: comm cost %d, %d/%d segments used\n", sol.Comm, sol.UsedPartitions(), sol.N)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fail(enc.Encode(sol))
	} else if !*quiet {
		fmt.Print(sol.Report(g, alloc))
	}
	if *sim {
		_, tm, err := rpsim.Run(g, alloc, dev, sol, nil)
		fail(err)
		fmt.Printf("sim: %d segments, %d cycles @ %.0f ns, %d stored / %d restored units, peak mem %d\n",
			tm.Segments, tm.Cycles, tm.ClockNS, tm.StoredUnits, tm.RestoredUnits, tm.PeakMemory)
		fmt.Printf("sim: compute %.1f us + reconfig %.1f us + transfer %.1f us = %.1f us\n",
			tm.ComputeNS/1e3, tm.ReconfigNS/1e3, tm.TransferNS/1e3, tm.TotalNS()/1e3)
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		fail(err)
		fail(viz.WriteSVG(f, g, alloc, sol))
		fail(f.Close())
		fmt.Printf("svg: schedule chart written to %s\n", *svg)
	}
	if *vcd != "" {
		f, err := os.Create(*vcd)
		fail(err)
		fail(rpsim.WriteVCD(f, g, alloc, dev, sol, nil))
		fail(f.Close())
		fmt.Printf("vcd: waveform written to %s\n", *vcd)
	}
	if *vhdl {
		nets, err := rtl.BuildAll(g, alloc, sol)
		fail(err)
		for _, nl := range nets {
			fmt.Printf("\n-- segment %d: %d FG, %d registers, %d mux inputs\n",
				nl.Segment, nl.FG, len(nl.Registers), nl.MuxInputs())
			fmt.Print(nl.VHDL())
		}
	}
}

func readGraph(path string) (*graph.Graph, error) {
	if path == "-" {
		return graph.Parse(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Parse(f)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpsyn:", strings.TrimPrefix(err.Error(), "core: "))
		os.Exit(1)
	}
}
