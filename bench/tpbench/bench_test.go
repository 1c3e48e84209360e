package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const benchmarkPath = "../../BENCHMARK.json"

// TestBenchmarkDefinition keeps BENCHMARK.json and the program in step:
// the same workloads and metrics, and bounds the definition allows.
func TestBenchmarkDefinition(t *testing.T) {
	var def struct {
		benchmarkFile
		PerLayer   []metricDef `json:"per_layer"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := readJSON(benchmarkPath, &def); err != nil {
		t.Fatal(err)
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, tpbench measures %d s by default", def.RunSeconds, defaultSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads defined, %d implemented", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, implemented %q", i, w.Name, workloads[i].name)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Fatalf("%d+%d metrics defined, %d+%d implemented", len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range def.EndToEnd {
		if m.metricDef != endToEnd[i] {
			t.Errorf("end_to_end %d is %+v, implemented %+v", i, m.metricDef, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > def.EndToEnd[0].Bound || def.EndToEnd[0].Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, setup_s bound %g <= 0.25]", m.Name, m.Bound, def.EndToEnd[0].Bound)
		}
	}
	for i, m := range def.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer %d is %+v, implemented %+v", i, m, perLayer[i])
		}
	}
}

// TestSmoke runs each workload for about a second, untraced and traced,
// every answer checked. With -short each workload runs once: suite and
// service-warm traced, paper and service-cold not, so both kinds of
// measurement still run on both kinds of workload.
func TestSmoke(t *testing.T) {
	exp, err := loadBuiltinExpected()
	if err != nil {
		t.Fatal(err)
	}
	type smoke struct {
		workload string
		traced   bool
		nonzero  []string
	}
	cases := []smoke{
		{"suite", true, []string{"lp.solve_pct", "core.build_ms", "lp.root_pct", "milp.nodes", "lp.btran_pct"}},
		{"paper", false, nil},
		{"service-cold", false, nil},
		{"service-warm", true, []string{"service.http_pct", "delta.dispatch_pct", "core.build_ms", "lp.root_pct",
			"service.cache_hit_ratio", "delta.warm_ratio", "delta.reuse_ratio"}},
	}
	if !testing.Short() {
		cases = append(cases,
			smoke{"suite", false, nil},
			smoke{"paper", true, []string{"core.build_pct", "core.build_ms", "core.solve_ms", "core.model_rows"}},
			smoke{"service-cold", true, []string{"service.http_pct", "exact.certify_pct", "lp.root_pct", "milp.nodes"}},
			smoke{"service-warm", false, nil})
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/traced=%v", tc.workload, tc.traced), func(t *testing.T) {
			var w workload
			for _, w = range workloads {
				if w.name == tc.workload {
					break
				}
			}
			cfg := runConfig{seed: 7, duration: time.Second, setups: 1}
			if tc.traced {
				cfg.log = newSpanLog()
			}
			res, err := runOnce(context.Background(), w, cfg, exp)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 || res.attempted == 0 {
				t.Errorf("%d of %d failed: %v", res.failed, res.attempted, res.failures)
			}
			for _, d := range metricDefs(tc.traced) {
				v, ok := res.metrics[d.Name]
				if !ok && !tc.traced || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (reported %v)", d.Name, v, ok)
				}
				if !tc.traced && v <= 0 {
					t.Errorf("%s = %v, want a positive measurement", d.Name, v)
				}
			}
			if !tc.traced {
				return
			}
			for _, name := range tc.nonzero {
				if res.metrics[name] <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, res.metrics[name])
				}
			}
			covered := 0.0
			for _, l := range layers {
				covered += res.metrics[l+"_pct"]
			}
			if covered < 90 || covered > 100.001 {
				t.Errorf("named layers cover %.3f%% of end-to-end time", covered)
			}
			var buf bytes.Buffer
			if err := cfg.log.writeNDJSON(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var s span
			if err := json.Unmarshal([]byte(lines[0]), &s); err != nil || len(lines) < 10 || s.Trace == "" {
				t.Errorf("span log: %d lines, first %q: %v", len(lines), lines[0], err)
			}
		})
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	file := func(name string, lat, nodes float64) string {
		rf := resultFile{Workloads: map[string]*workloadResult{
			"suite":        {Metrics: map[string]metricResult{"latency_p50_ms": {Median: lat}, "milp.nodes": {Median: nodes}}},
			"service-cold": {Metrics: map[string]metricResult{"latency_p50_ms": {Median: lat}}},
		}}
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", 100, 69.4)
	for _, tc := range []struct {
		name       string
		lat, nodes float64
		agree      bool
	}{
		{"same", 100, 69.4, true},
		{"within bound", 104, 69.4, true},
		{"beyond bound", 140, 69.4, false},
		{"suite nodes not exact", 100, 69.6, false},
	} {
		var out bytes.Buffer
		ok, err := agreeFiles(&out, base, file(tc.name+".json", tc.lat, tc.nodes), benchmarkPath)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.agree {
			t.Errorf("%s: agree = %v, want %v\n%s", tc.name, ok, tc.agree, out.String())
		}
		if rows := strings.Count(out.String(), "\n"); rows != 4 {
			t.Errorf("%s: %d lines, want a header and three rows\n%s", tc.name, rows, out.String())
		}
	}
}
