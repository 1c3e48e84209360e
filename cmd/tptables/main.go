// Command tptables regenerates the paper's evaluation tables and the
// ablation studies on the seeded benchmark graphs.
//
// Usage:
//
//	tptables                          # every table
//	tptables -table 3                 # just Table 3
//	tptables -timeout 30s             # tighter per-row budget
//	tptables -trace rows.ndjson       # stream solver events per row
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func main() {
	var (
		table    = flag.String("table", "", "table to run: 1, 2, 3, 4, lin, branching, tighten (empty = all)")
		timeout  = flag.Duration("timeout", experiments.DefaultTimeLimit, "per-row time limit")
		traceOut = flag.String("trace", "", "stream solver events of every row as NDJSON to this file (- for stderr)")
	)
	flag.Parse()

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
