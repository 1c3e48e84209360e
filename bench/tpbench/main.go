// Command tpbench is the repository's benchmark: one process that runs
// four named workloads against the solver stack, checks every answer
// against hand-recorded expected verdicts, and prints the end-to-end
// metrics by name and unit — or, in the traced run, how the time
// splits across the layers. See bench/README.md for the workloads and
// the metrics.
//
// Usage:
//
//	tpbench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-runs k] [-out file]
//	tpbench -agree a.json b.json
//
// Without -workload all four workloads run. With one workload and one
// run, the last line of standard output is the result as one JSON
// object. tpbench exits 1 when any answer is wrong or failed, and 2 when
// the benchmark itself cannot run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeconds is the measured duration of one run, run_seconds in
// BENCHMARK.json.
const defaultSeconds = 20

func main() {
	name := flag.String("workload", "", "run one workload: suite, paper, service-cold or service-warm (default: all four)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from; run i of -runs uses seed+i")
	seconds := flag.Int("seconds", defaultSeconds, "measured duration of one run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run, which reports per-layer metrics instead of end-to-end ones")
	runs := flag.Int("runs", 1, "runs per workload; -out records each metric's median and quartiles over them")
	out := flag.String("out", "", "write the results to this JSON file")
	spansTo := flag.String("spans", "tpbench-spans.ndjson", "file the traced run writes its spans to, as NDJSON")
	agree := flag.Bool("agree", false, "compare two -out files within the bounds of -benchmark: tpbench -agree a.json b.json")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark definition -agree takes its bounds from")
	flag.Parse()

	if *agree {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-agree takes two result files"))
		}
		ok, err := agreeFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *benchmark)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 || *seconds < 1 || *runs < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
	}
	exp, err := loadBuiltinExpected()
	if err != nil {
		fatal(err)
	}

	var spanFile *os.File
	if *traced == 1 {
		if spanFile, err = os.Create(*spansTo); err != nil {
			fatal(err)
		}
	}
	file := resultFile{Seed: *seed, Seconds: *seconds, Trace: *traced, Runs: *runs, Workloads: map[string]*workloadResult{}}
	failed := false
	var last *result
	for _, w := range selected {
		wr := &workloadResult{}
		file.Workloads[w.name] = wr
		values := map[string][]float64{}
		for r := 0; r < *runs; r++ {
			cfg := runConfig{seed: *seed + int64(r), duration: time.Duration(*seconds) * time.Second, setups: 3}
			if *traced == 1 {
				cfg.setups, cfg.log = 1, newSpanLog()
			}
			// every run ends: a hung solve fails the run instead
			ctx, cancel := context.WithTimeout(context.Background(), cfg.duration+150*time.Second)
			res, err := runOnce(ctx, w, cfg, exp)
			cancel()
			if err != nil {
				fatal(err)
			}
			if cfg.log != nil {
				if err := cfg.log.writeNDJSON(spanFile); err != nil {
					fatal(err)
				}
			}
			printRun(os.Stdout, w.name, cfg.seed, res, *traced == 1)
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			for k, v := range res.metrics {
				values[k] = append(values[k], v)
			}
			failed = failed || res.failed > 0
			last = res
		}
		wr.Metrics = summarize(values, *traced == 1)
	}
	if spanFile != nil {
		if err := spanFile.Close(); err != nil {
			fatal(err)
		}
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fatal(err)
		}
	}
	if len(selected) == 1 && *runs == 1 {
		if err := printResult(os.Stdout, last, *traced == 1); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpbench:", err)
	os.Exit(2)
}

func loadBuiltinExpected() (*expected, error) {
	suite, err := suiteNames()
	if err != nil {
		return nil, err
	}
	return loadExpected(expectedJSON, suite, paperRows, ladderGraphs)
}

// printRun prints one run's metrics by name and unit, then its notes
// and first failures.
func printRun(w io.Writer, name string, seed int64, res *result, traced bool) {
	fmt.Fprintf(w, "== %s (seed %d): %d attempted, %d failed\n", name, seed, res.attempted, res.failed)
	for _, d := range metricDefs(traced) {
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", d.Name, res.metrics[d.Name], d.Unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints the one-line result of a single run: whether
// every answer was correct, how many operations were attempted and
// failed, and every metric of the run's kind with its unit.
func printResult(w io.Writer, res *result, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]value{}}
	for _, d := range metricDefs(traced) {
		line.Metrics[d.Name] = value{res.metrics[d.Name], d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
