// Command tptables regenerates the paper's evaluation tables and the
// ablation studies on the seeded benchmark graphs.
//
// Usage:
//
//	tptables                          # every table
//	tptables -table 3                 # just Table 3
//	tptables -timeout 30s             # tighter per-row budget
//	tptables -trace rows.ndjson       # stream solver events per row
//	tptables -benchmilp BENCH_milp.json  # serial-vs-parallel B&B suite
//	tptables -sweepbench BENCH_sweep.json  # warm-vs-cold α sweep
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		table      = flag.String("table", "", "table to run: 1, 2, 3, 4, lin, branching, tighten (empty = all)")
		timeout    = flag.Duration("timeout", experiments.DefaultTimeLimit, "per-row time limit")
		benchmilp  = flag.String("benchmilp", "", "run the serial-vs-parallel branch-and-bound suite and write its JSON report to this file")
		sweepbench = flag.String("sweepbench", "", "run the warm-vs-cold design-space sweep benchmark and write its JSON report to this file")
		parallel   = flag.Int("parallel", 0, "worker count for -benchmilp (0 = GOMAXPROCS, min 2)")
		minSpeedup = flag.Float64("minspeedup", 0, "fail (exit 1) when any -benchmilp instance's speedup falls below this threshold (0 disables the check)")
		trajectory = flag.String("trajectory", "", "append a dated distillation of the -benchmilp or -sweepbench run to this JSON series (e.g. BENCH_trajectory.json)")
		traceOut   = flag.String("trace", "", "stream solver events of every row as NDJSON to this file (- for stderr)")
	)
	flag.Parse()

	if *benchmilp != "" {
		if err := runBenchMILP(*benchmilp, *trajectory, *parallel, *minSpeedup); err != nil {
			fmt.Fprintln(os.Stderr, "tptables:", err)
			os.Exit(1)
		}
		return
	}
	if *sweepbench != "" {
		if err := runSweepBench(*sweepbench, *trajectory); err != nil {
			fmt.Fprintln(os.Stderr, "tptables:", err)
			os.Exit(1)
		}
		return
	}
	if *trajectory != "" {
		fmt.Fprintln(os.Stderr, "tptables: -trajectory requires -benchmilp or -sweepbench")
		os.Exit(1)
	}

	var tr *trace.Tracer
	if *traceOut != "" {
		var w io.Writer = os.Stderr
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tptables:", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		tr = trace.New(trace.NewWriterSink(w))
	}

	names := []string{*table}
	if *table == "" {
		names = names[:0]
		for n := range experiments.Tables {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		gen, ok := experiments.Tables[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "tptables: unknown table %q\n", name)
			os.Exit(1)
		}
		rows := gen()
		for i := range rows {
			rows[i].TimeLimit = *timeout
			rows[i].Opt.Trace = tr
		}
		fmt.Printf("== table %s (device %s, per-row limit %v)\n", name, experiments.Device().Name, *timeout)
		if _, err := experiments.RunAll(rows, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tptables:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// runBenchMILP runs the parallel branch-and-bound suite, prints a
// per-entry summary and writes the machine-readable report; with a
// trajectory path it also appends the dated distillation to the
// series. A positive minSpeedup turns the run into a regression gate:
// any instance below the threshold fails the command after the report
// is written, so CI keeps the artifact for diagnosis.
func runBenchMILP(path, trajectory string, parallel int, minSpeedup float64) error {
	rep, err := experiments.RunMILPBench(parallel)
	if err != nil {
		return err
	}
	fmt.Printf("== benchmilp (GOMAXPROCS=%d, parallelism=%d)\n", rep.GOMAXPROCS, rep.Parallelism)
	for _, e := range rep.Entries {
		fmt.Printf("%-14s serial %8v %4d nodes %6d pivots (%7.0f piv/s, %5.0f ns/piv) | %s %8v %4d nodes %6d pivots, %d steals, %d cuts, 1st inc @%d nodes/%.0fms | comm %2d | speedup %.2fx\n",
			e.Name,
			time.Duration(e.Serial.NS).Round(time.Millisecond), e.Serial.Nodes, e.Serial.LPPivots,
			e.Serial.PivotsPerSec, e.Serial.NSPerPivot,
			e.Parallel.Mode,
			time.Duration(e.Parallel.NS).Round(time.Millisecond), e.Parallel.Nodes, e.Parallel.LPPivots,
			e.Parallel.Steals, e.Parallel.Cuts, e.Parallel.FirstIncNodes, e.Parallel.FirstIncMS,
			e.Serial.Comm, e.Speedup)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("benchmilp: report written to %s\n", path)
	if trajectory != "" {
		date := time.Now().Format("2006-01-02")
		if err := experiments.AppendTrajectory(trajectory, date, rep); err != nil {
			return err
		}
		fmt.Printf("benchmilp: trajectory entry for %s appended to %s\n", date, trajectory)
	}
	if minSpeedup > 0 {
		var failed []string
		for _, e := range rep.Entries {
			if e.Speedup < minSpeedup {
				failed = append(failed, fmt.Sprintf("%s %.2fx", e.Name, e.Speedup))
			}
		}
		if len(failed) > 0 {
			return fmt.Errorf("speedup regression: %s below the %.2fx floor", strings.Join(failed, ", "), minSpeedup)
		}
		fmt.Printf("benchmilp: every instance at or above the %.2fx speedup floor\n", minSpeedup)
	}
	return nil
}

// runSweepBench runs the warm-vs-cold design-space sweep, prints the
// per-point dispatch and timings and writes the machine-readable
// report; with a trajectory path it also appends the dated
// distillation to the series.
func runSweepBench(path, trajectory string) error {
	rep, err := experiments.RunSweepBench()
	if err != nil {
		return err
	}
	fmt.Printf("== sweepbench (GOMAXPROCS=%d, graph %s, N=%d L=%d)\n", rep.GOMAXPROCS, rep.Graph, rep.N, rep.L)
	for _, p := range rep.Points {
		fmt.Printf("alpha %.2f  warm %8v (%s)  cold %8v  comm %2d\n",
			p.Alpha,
			time.Duration(p.WarmNS).Round(time.Millisecond), p.Path,
			time.Duration(p.ColdNS).Round(time.Millisecond), p.Comm)
	}
	fmt.Printf("total: warm %v vs cold %v — %.2fx (%d warm, %d reuse, %d cold)\n",
		time.Duration(rep.WarmNS).Round(time.Millisecond),
		time.Duration(rep.ColdNS).Round(time.Millisecond),
		rep.Speedup, rep.Warm, rep.Reuse, rep.Cold)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("sweepbench: report written to %s\n", path)
	if trajectory != "" {
		date := time.Now().Format("2006-01-02")
		if err := experiments.AppendSweepTrajectory(trajectory, date, rep); err != nil {
			return err
		}
		fmt.Printf("sweepbench: trajectory entry for %s appended to %s\n", date, trajectory)
	}
	return nil
}
