package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func trajectoryReport(serialNS, parNS int64) MILPBenchReport {
	return MILPBenchReport{
		GOMAXPROCS:  8,
		Parallelism: 4,
		Entries: []MILPBenchResult{{
			Name:     "fir16/N2L3",
			Serial:   MILPRunStats{NS: serialNS, Nodes: 120, LPPivots: 9000, Comm: 3, Feasible: true, Optimal: true},
			Parallel: MILPRunStats{NS: parNS, Nodes: 140, LPPivots: 9500, Comm: 3, Feasible: true, Optimal: true},
			Speedup:  float64(serialNS) / float64(parNS),
		}},
	}
}

// TestAppendTrajectory checks the series lifecycle: a missing file
// starts a new series, repeated appends grow it in order, and the
// distillation keeps the tracked numbers.
func TestAppendTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")

	if err := AppendTrajectory(path, "2026-08-04", trajectoryReport(2e9, 1e9)); err != nil {
		t.Fatal(err)
	}
	if err := AppendTrajectory(path, "2026-08-05", trajectoryReport(18e8, 8e8)); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var series []TrajectoryEntry
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatalf("series not valid JSON: %v\n%s", err, raw)
	}
	if len(series) != 2 {
		t.Fatalf("series length %d, want 2", len(series))
	}
	if series[0].Date != "2026-08-04" || series[1].Date != "2026-08-05" {
		t.Fatalf("dates out of order: %s, %s", series[0].Date, series[1].Date)
	}
	e := series[0]
	if e.GOMAXPROCS != 8 || e.Parallelism != 4 || len(e.Results) != 1 {
		t.Fatalf("entry shape wrong: %+v", e)
	}
	r := e.Results[0]
	if r.Name != "fir16/N2L3" || r.SerialMS != 2000 || r.ParallelMS != 1000 || r.Speedup != 2 || r.Nodes != 120 {
		t.Fatalf("distillation wrong: %+v", r)
	}
}

// TestAppendSweepTrajectory checks that a sweep distillation can be
// appended to a series started by the benchmilp distillation, and that
// the two entry shapes coexist in one file.
func TestAppendSweepTrajectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")

	if err := AppendTrajectory(path, "2026-08-07", trajectoryReport(2e9, 1e9)); err != nil {
		t.Fatal(err)
	}
	sweep := SweepBenchReport{
		GOMAXPROCS: 8,
		Graph:      "diffeq",
		N:          2, L: 2,
		Points: []SweepBenchPoint{
			{Alpha: 0.7, WarmNS: 5e8, ColdNS: 1e9, Path: "cold"},
			{Alpha: 0.8, WarmNS: 1e8, ColdNS: 1e9, Path: "warm"},
		},
		WarmNS: 6e8, ColdNS: 2e9, Speedup: 2e9 / 6e8,
		Warm: 1, Cold: 1,
	}
	if err := AppendSweepTrajectory(path, "2026-08-08", sweep); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var series []TrajectoryEntry
	if err := json.Unmarshal(raw, &series); err != nil {
		t.Fatalf("series not valid JSON: %v\n%s", err, raw)
	}
	if len(series) != 2 {
		t.Fatalf("series length %d, want 2", len(series))
	}
	if series[0].Sweep != nil {
		t.Fatalf("benchmilp entry grew a sweep: %+v", series[0].Sweep)
	}
	e := series[1]
	if e.Date != "2026-08-08" || e.GOMAXPROCS != 8 || len(e.Results) != 0 {
		t.Fatalf("sweep entry shape wrong: %+v", e)
	}
	if e.Sweep == nil {
		t.Fatal("sweep entry missing Sweep distillation")
	}
	s := *e.Sweep
	if s.Graph != "diffeq" || s.Points != 2 || s.WarmMS != 600 || s.ColdMS != 2000 || s.Warm != 1 || s.Reuse != 0 {
		t.Fatalf("sweep distillation wrong: %+v", s)
	}
	if s.Speedup < 3.3 || s.Speedup > 3.4 {
		t.Fatalf("speedup %v, want 2000/600", s.Speedup)
	}
}

// TestAppendTrajectoryRejectsCorrupt refuses to overwrite a file that
// is not a trajectory series.
func TestAppendTrajectoryRejectsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendTrajectory(path, "2026-08-05", trajectoryReport(1, 1)); err == nil {
		t.Fatal("corrupt series accepted")
	}
	raw, _ := os.ReadFile(path)
	if string(raw) != "{not json" {
		t.Fatalf("corrupt file was rewritten to %q", raw)
	}
}

// TestAppendTrajectoryKeepsHistory: an append must leave every past
// entry as it was written, including keys TrajectoryEntry no longer
// declares — the ledger is history, not a re-encoding of it.
func TestAppendTrajectoryKeepsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_trajectory.json")
	old := `[
  {
    "date": "2026-08-08",
    "gomaxprocs": 2,
    "results": [
      {
        "name": "diffeq/N2L2",
        "serial_ms": 41.5,
        "parallel_ms": 40.25,
        "speedup": 1.031,
        "nodes": 7,
        "engine": "revised"
      }
    ],
    "retired": {
      "kept": true
    }
  }
]
`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AppendTrajectory(path, "2026-10-17", trajectoryReport(2e9, 1e9)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var series []json.RawMessage
	if err := json.Unmarshal(raw, &series); err != nil || len(series) != 2 {
		t.Fatalf("series after append: %d entries, err %v\n%s", len(series), err, raw)
	}
	if want := strings.TrimSuffix(old, "\n]\n"); !strings.HasPrefix(string(raw), want) {
		t.Fatalf("past entry rewritten:\n%s\nwant prefix:\n%s", raw, want)
	}
}
