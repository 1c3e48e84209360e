// Command tpreplay analyzes a search-tree flight recording captured by
// tpsyn -record or a tpserve record-mode job: where did the branch and
// bound spend its time, which nodes were expensive, and how did the
// bounds converge.
//
// Usage:
//
//	tpsyn -graph fir.tg -record fir.rec && tpreplay fir.rec
//	tpreplay -top 20 -dot tree.dot solve.rec.gz
//	curl -s localhost:8080/v1/jobs/j0000001/recording | tpreplay -
//	tpreplay -spans spans.ndjson
//	curl -s localhost:8080/v1/jobs/j0000001/blackbox | tpreplay -blackbox -
//
// The input is the NDJSON codec of internal/trace, plain or gzipped
// (auto-detected).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	var (
		topK    = flag.Int("top", 10, "how many slowest nodes to list")
		bounds  = flag.Int("bounds", 20, "how many bound-convergence rows to print (0 disables)")
		dotOut  = flag.String("dot", "", "export the search tree as a Graphviz DOT file")
		certify = flag.Bool("certify", false, "re-run the embedded exact certificate's checks offline and print them (exit 1 when absent, 3 when invalid)")
		spansIn = flag.String("spans", "", "pretty-print an NDJSON span file (tpserve -spans, GET .../spans) instead of a recording")
		bbIn    = flag.String("blackbox", "", "pretty-print a black-box dump (tpserve -blackbox, GET .../blackbox) instead of a recording")
	)
	flag.Parse()
	if *spansIn != "" || *bbIn != "" {
		if *spansIn != "" {
			fail(printSpanFile(*spansIn))
		}
		if *bbIn != "" {
			fail(printBlackBoxFile(*bbIn))
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tpreplay [flags] <recording> (- for stdin)")
		flag.PrintDefaults()
		os.Exit(2)
	}

	rec, err := readRecording(flag.Arg(0))
	fail(err)

	printSummary(rec)
	printPhases(rec)
	printSlowest(rec, *topK)
	if *bounds > 0 {
		printBounds(rec, *bounds)
	}
	if *certify {
		certifyRecording(rec)
	}

	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		fail(err)
		fail(viz.WriteSearchDOT(f, rec))
		fail(f.Close())
		fmt.Printf("\ndot: search tree written to %s\n", *dotOut)
	}
}

func readRecording(path string) (*trace.Recording, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return trace.DecodeRecording(r)
}

// printSummary is the timeline header: what was solved, how it ended,
// and the recorded-vs-explored accounting.
func printSummary(rec *trace.Recording) {
	label := rec.Label
	if label == "" {
		label = "(unlabeled)"
	}
	fmt.Printf("recording: %s\n", label)
	if a := rec.Amend; a != nil {
		fmt.Printf("amend:     gen %d of job %s (class=%s path=%s)\n",
			a.Generation, a.Of, orUnknown(a.Class), orUnknown(a.Path))
	}
	fmt.Printf("status:    %s in %v\n", orUnknown(rec.Status), time.Duration(rec.WallNS).Round(time.Microsecond))
	fmt.Printf("search:    %d nodes explored, %d recorded", rec.TotalNodes, len(rec.Nodes))
	if rec.Dropped > 0 {
		fmt.Printf(" (%d beyond the recording limit)", rec.Dropped)
	}
	fmt.Printf(", %d LP pivots", rec.Pivots)
	if rec.WallNS > 0 && rec.Pivots > 0 {
		fmt.Printf(" (%.0f pivots/s)", float64(rec.Pivots)/(float64(rec.WallNS)/1e9))
	}
	fmt.Println()
	if rec.Mode != "" {
		fmt.Printf("mode:      %s", rec.Mode)
		if rec.Steals > 0 {
			fmt.Printf("; %d steals", rec.Steals)
		}
		fmt.Println()
	}
	if n := len(rec.Cuts); n > 0 {
		names := map[string]int{}
		for _, c := range rec.Cuts {
			kind := c.Name
			if i := strings.IndexByte(kind, '['); i > 0 {
				kind = kind[:i]
			}
			names[kind]++
		}
		fmt.Printf("cuts:      %d applied at the root (", n)
		first := true
		for _, kind := range []string{"gomory", "cover"} {
			if names[kind] == 0 {
				continue
			}
			if !first {
				fmt.Printf(", ")
			}
			fmt.Printf("%d %s", names[kind], kind)
			first = false
		}
		fmt.Println(")")
	}
	if lp := rec.LP; lp != nil {
		fmt.Print("lp:        ")
		if lp.Engine != "" { // recordings from before the dense engine's removal
			fmt.Printf("%s engine; ", lp.Engine)
		}
		fmt.Printf("%d factorizations", lp.Factorizations)
		if lp.Factorizations > 0 {
			if rec.Pivots > 0 {
				fmt.Printf(" (every %.0f pivots)", float64(rec.Pivots)/float64(lp.Factorizations))
			}
			if lp.BasisNNZ > 0 {
				fmt.Printf(", basis nnz %d, LU fill %.2fx", lp.BasisNNZ,
					float64(lp.FactorNNZ)/float64(lp.BasisNNZ))
			}
			fmt.Printf(", %d ftran / %d btran, eta nnz %d", lp.FTRANs, lp.BTRANs, lp.EtaNNZ)
		}
		fmt.Println()
	}
	if n := len(rec.Incumbents); n > 0 {
		first, last := rec.Incumbents[0], rec.Incumbents[n-1]
		fmt.Printf("incumbents: %d installed; first %g at %.1f ms, best %g at %.1f ms\n",
			n, first.Obj, first.TMS, last.Obj, last.TMS)
		if rec.FirstIncNS > 0 || rec.FirstIncNodes > 0 {
			where := "by the root dive, before the tree search"
			if rec.FirstIncNodes > 0 {
				where = fmt.Sprintf("after %d nodes", rec.FirstIncNodes)
			}
			fmt.Printf("first inc:  %s, %.1f ms in\n", where, float64(rec.FirstIncNS)/1e6)
		}
	} else {
		fmt.Println("incumbents: none installed")
	}
	workers := map[int32]int{}
	for _, n := range rec.Nodes {
		workers[n.Worker]++
	}
	if len(workers) > 1 {
		fmt.Printf("workers:   %d recorded across the tree\n", len(workers))
	}
}

// printPhases is the attribution table. Node-level phases are disjoint
// and sum to (approximately) the solve wall time — the coverage line
// states how much of the wall the taxonomy explains. LP-internal phases
// subdivide node-lp and are shown nested, as a share of their parent.
func printPhases(rec *trace.Recording) {
	if len(rec.Phases) == 0 {
		fmt.Println("\nphases: none recorded (profile not attached)")
		return
	}
	fmt.Println("\nphase attribution")
	fmt.Printf("  %-16s %10s %12s %8s\n", "phase", "count", "total", "share")

	var nodeNS, lpNS int64
	byName := map[string]trace.PhaseStat{}
	for _, ph := range rec.Phases {
		byName[ph.Name] = ph
		if p, ok := trace.ParsePhase(ph.Name); ok && p.NodeLevel() {
			nodeNS += ph.SumNS
		}
	}
	if nl, ok := byName[trace.PhaseNodeLP.String()]; ok {
		lpNS = nl.SumNS
	}

	nodeRow := func(p trace.Phase) {
		ph, ok := byName[p.String()]
		if !ok {
			return
		}
		fmt.Printf("  %-16s %10d %12v %7.1f%%\n",
			p.String(), ph.Count, time.Duration(ph.SumNS).Round(time.Microsecond), share(ph.SumNS, rec.WallNS))
	}
	nodeRow(trace.PhaseNodeLP)
	// LP-internal phases subdivide node-lp: nested, as a share of it.
	// Root-level (cut-gen, dive) and service-level (queue-wait) phases
	// overlap nothing and are printed as plain wall-share rows below.
	for p := trace.PhasePricing; p <= trace.PhaseFactorize; p++ {
		ph, ok := byName[p.String()]
		if !ok {
			continue
		}
		fmt.Printf("    %-14s %10d %12v %7.1f%% of node-lp\n",
			p.String(), ph.Count, time.Duration(ph.SumNS).Round(time.Microsecond), share(ph.SumNS, lpNS))
	}
	for p := trace.PhaseProbe; p <= trace.PhaseVerify; p++ {
		nodeRow(p)
	}
	for p := trace.PhaseCutGen; p < trace.NumPhases; p++ {
		nodeRow(p)
	}
	fmt.Printf("  coverage: node-level phases explain %.1f%% of the %v wall time\n",
		share(nodeNS, rec.WallNS), time.Duration(rec.WallNS).Round(time.Microsecond))
}

// printSlowest lists the top-k nodes by LP wall time.
func printSlowest(rec *trace.Recording, k int) {
	if k <= 0 || len(rec.Nodes) == 0 {
		return
	}
	nodes := make([]trace.NodeRec, len(rec.Nodes))
	copy(nodes, rec.Nodes)
	sort.Slice(nodes, func(a, b int) bool {
		if nodes[a].NS != nodes[b].NS {
			return nodes[a].NS > nodes[b].NS
		}
		return nodes[a].ID < nodes[b].ID
	})
	if k > len(nodes) {
		k = len(nodes)
	}
	fmt.Printf("\nslowest %d nodes\n", k)
	fmt.Printf("  %8s %6s %6s %-14s %12s %8s %10s\n", "node", "depth", "worker", "lp", "objective", "pivots", "time")
	for _, n := range nodes[:k] {
		obj := "-"
		if n.HasObj {
			obj = fmt.Sprintf("%.4g", n.Obj)
		}
		fmt.Printf("  %8d %6d %6d %-14s %12s %8d %10v\n",
			n.ID, n.Depth, n.Worker, orUnknown(n.LP), obj, n.Pivots,
			time.Duration(n.NS).Round(time.Microsecond))
	}
}

// printBounds is the convergence table: one row per change of the
// global proved bound or the incumbent, in exploration order, with the
// relative gap. Rows are thinned to the requested count, keeping the
// first and last.
func printBounds(rec *trace.Recording, limit int) {
	type row struct {
		tms        float64
		node       int64
		bound, inc float64
		hasB, hasI bool
	}
	var rows []row
	var (
		curB, curI   float64
		haveB, haveI bool
	)
	incAt := map[int64]float64{}
	for _, inc := range rec.Incumbents {
		incAt[inc.Node] = inc.Obj
	}
	for _, n := range rec.Nodes {
		changed := false
		if n.Best != 0 || n.HasObj { // Best is omitted while unset
			if !haveB || n.Best > curB {
				curB, haveB = n.Best, true
				changed = true
			}
		}
		if obj, ok := incAt[n.ID]; ok {
			if !haveI || obj < curI {
				curI, haveI = obj, true
				changed = true
			}
		} else if n.HasInc && (!haveI || n.Inc < curI) {
			curI, haveI = n.Inc, true
			changed = true
		}
		if changed {
			rows = append(rows, row{n.TMS, n.ID, curB, curI, haveB, haveI})
		}
	}
	if len(rows) == 0 {
		return
	}
	if len(rows) > limit {
		// keep the endpoints, sample the middle evenly
		kept := make([]row, 0, limit)
		for i := 0; i < limit; i++ {
			kept = append(kept, rows[i*(len(rows)-1)/(limit-1)])
		}
		rows = kept
	}
	fmt.Println("\nbound convergence")
	fmt.Printf("  %10s %8s %12s %12s %8s\n", "t", "node", "bound", "incumbent", "gap")
	for _, r := range rows {
		b, i, gap := "-", "-", "-"
		if r.hasB {
			b = fmt.Sprintf("%.4g", r.bound)
		}
		if r.hasI {
			i = fmt.Sprintf("%.4g", r.inc)
		}
		if r.hasB && r.hasI && r.inc != 0 {
			gap = fmt.Sprintf("%.2f%%", 100*(r.inc-r.bound)/r.inc)
		}
		fmt.Printf("  %8.1fms %8d %12s %12s %8s\n", r.tms, r.node, b, i, gap)
	}
}

// certifyRecording re-runs the recording's embedded exact certificate
// from scratch. Certificates are self-contained — a rational snapshot
// of the problem plus the witnesses — so the checks here recompute the
// attachment-time verdict with no access to the original model.
func certifyRecording(rec *trace.Recording) {
	cert := rec.Certificate
	if cert == nil {
		fail(fmt.Errorf("recording has no certificate: capture it with tpsyn -certify -record or a service job with options.certify+record"))
	}
	cert.Check() // re-verify offline; ignores the recorded verdict
	fmt.Printf("\ncertificate: %s\n", cert.Summary())
	fmt.Printf("  %-24s %-4s %s\n", "check", "ok", "detail")
	for _, ch := range cert.Checks {
		mark := "ok"
		if !ch.OK {
			mark = "FAIL"
		}
		fmt.Printf("  %-24s %-4s %s\n", ch.Name, mark, ch.Detail)
	}
	for _, tr := range cert.Trusted {
		fmt.Printf("  trusted: %s\n", tr)
	}
	if !cert.Valid {
		fmt.Fprintln(os.Stderr, "tpreplay: certificate INVALID — the recorded verdict failed exact re-verification")
		os.Exit(3)
	}
}

func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpreplay:", err)
		os.Exit(1)
	}
}
