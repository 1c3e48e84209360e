package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// resultFile is what -out writes: each metric's median and quartiles
// over the runs of each workload.
type resultFile struct {
	Seed      int64                      `json:"seed"`
	Seconds   int                        `json:"seconds"`
	Trace     int                        `json:"trace"`
	Runs      int                        `json:"runs"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]metricResult `json:"metrics"`
}

type metricResult struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values map[string][]float64, traced bool) map[string]metricResult {
	out := map[string]metricResult{}
	for _, d := range metricDefs(traced) {
		q1, med, q3 := quartiles(values[d.Name])
		out[d.Name] = metricResult{Unit: d.Unit, Median: med, Q1: q1, Q3: q3, Values: values[d.Name]}
	}
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json -agree reads.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactOnSuite are the counts the suite's serial solves repeat exactly,
// so two result sets of one commit must match them exactly.
var exactOnSuite = map[string]bool{"milp.nodes": true, "milp.pivots": true}

// agreeFiles prints one row per workload and metric the two result
// files share: the medians, their relative difference and the bound
// from the benchmark definition. It reports whether every difference is
// within its bound, and whether the suite's exact counts match exactly.
func agreeFiles(w io.Writer, pathA, pathB, benchPath string) (bool, error) {
	var a, b resultFile
	var def benchmarkFile
	for path, v := range map[string]any{pathA: &a, pathB: &b, benchPath: &def} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %9s %8s\n", "workload", "metric", "a median", "b median", "diff", "bound")
	ok, rows := true, 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range append(endToEnd, perLayer...) {
			ma, okA := wa.Metrics[d.Name]
			mb, okB := wb.Metrics[d.Name]
			bound, bounded := bounds[d.Name]
			exact := wl.name == "suite" && exactOnSuite[d.Name]
			if !okA || !okB || !bounded && !exact {
				continue
			}
			diff := 0.0
			if ma.Median != 0 {
				diff = (mb.Median - ma.Median) / ma.Median
			}
			verdict, limit := "ok", fmt.Sprintf("%.1f%%", 100*bound)
			if exact {
				limit = "exact"
			}
			if exact && ma.Median != mb.Median || !exact && math.Abs(diff) > bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "%-13s %-26s %14.6g %14.6g %8.2f%% %8s  %s\n",
				wl.name, d.Name, ma.Median, mb.Median, 100*diff, limit, verdict)
			rows++
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no workload and metric to compare", pathA, pathB)
	}
	return ok, nil
}
