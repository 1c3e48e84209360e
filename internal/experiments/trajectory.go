package experiments

// The performance trajectory: a dated, append-only distillation of the
// serial-vs-parallel suite kept in BENCH_trajectory.json at the repo
// root. Each CI bench-smoke run appends one entry, so regressions show
// up as a time series rather than a single overwritten snapshot.

import (
	"encoding/json"
	"fmt"
	"os"
)

// TrajectoryResult is one suite entry distilled to the numbers worth
// tracking over time.
type TrajectoryResult struct {
	Name       string  `json:"name"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// Nodes is the serial node count: a model or solver change that
	// alters the search tree shows here even when wall time hides it.
	Nodes int `json:"nodes"`
	// Pivots, PivotsPerSec and NSPerPivot track the serial run's simplex
	// throughput — the numbers an LP-engine change moves even when the
	// tree is unchanged.
	Pivots       int     `json:"pivots,omitempty"`
	PivotsPerSec float64 `json:"pivots_per_sec,omitempty"`
	NSPerPivot   float64 `json:"ns_per_pivot,omitempty"`
}

// SweepTrajectory distills one -sweepbench run: total warm-chained vs
// cold wall time over the α grid and the path mix.
type SweepTrajectory struct {
	Graph   string  `json:"graph"`
	Points  int     `json:"points"`
	WarmMS  float64 `json:"warm_ms"`
	ColdMS  float64 `json:"cold_ms"`
	Speedup float64 `json:"speedup"`
	Warm    int     `json:"warm"`
	Reuse   int     `json:"reuse"`
}

// LoadTrajectory distills one cmd/tpload run against a live tpserve:
// client-observed throughput and latency percentiles, the shed and
// warm accounting, and — in compare mode — the batch/warm-chain
// speedup over cold individual submissions of the same workload.
type LoadTrajectory struct {
	Mode     string  `json:"mode"`
	Requests int     `json:"requests"`
	Workers  int     `json:"workers"`
	RPS      float64 `json:"rps"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	// Shed counts 429 responses, Malformed responses that violated the
	// envelope/header contract (must be 0 on a healthy server).
	Shed      int `json:"shed"`
	Malformed int `json:"malformed"`
	// Warm/Reuse/Cold are the server's delta-path accounting deltas
	// over the run.
	Warm  int `json:"warm,omitempty"`
	Reuse int `json:"reuse,omitempty"`
	Cold  int `json:"cold,omitempty"`
	// ColdMS/BatchMS and Speedup are compare-mode only: summed
	// per-request solve time of the individual-cold phase vs the
	// batch/warm-chain phase of the same neighboring-instance workload.
	ColdMS  float64 `json:"cold_ms,omitempty"`
	BatchMS float64 `json:"batch_ms,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
}

// TrajectoryEntry is one dated point of the series: a serial-vs-
// parallel suite distillation, a warm-vs-cold sweep distillation, a
// tpload traffic distillation, or any combination.
type TrajectoryEntry struct {
	// Date is the run date, YYYY-MM-DD.
	Date        string             `json:"date"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Parallelism int                `json:"parallelism,omitempty"`
	Results     []TrajectoryResult `json:"results,omitempty"`
	// Sweep is the warm-vs-cold design-space sweep distillation
	// appended by tptables -sweepbench.
	Sweep *SweepTrajectory `json:"sweep,omitempty"`
	// Load is the tpload traffic-harness distillation appended by
	// tpload -trajectory.
	Load *LoadTrajectory `json:"load,omitempty"`
}

// distillTrajectory reduces a full suite report to a trajectory entry.
func distillTrajectory(date string, rep MILPBenchReport) TrajectoryEntry {
	e := TrajectoryEntry{
		Date:        date,
		GOMAXPROCS:  rep.GOMAXPROCS,
		Parallelism: rep.Parallelism,
	}
	for _, r := range rep.Entries {
		e.Results = append(e.Results, TrajectoryResult{
			Name:         r.Name,
			SerialMS:     float64(r.Serial.NS) / 1e6,
			ParallelMS:   float64(r.Parallel.NS) / 1e6,
			Speedup:      r.Speedup,
			Nodes:        r.Serial.Nodes,
			Pivots:       r.Serial.LPPivots,
			PivotsPerSec: r.Serial.PivotsPerSec,
			NSPerPivot:   r.Serial.NSPerPivot,
		})
	}
	return e
}

// AppendTrajectory appends a dated distillation of rep to the JSON
// array at path. A missing file starts a new series; a corrupt one is
// an error, never silently overwritten.
func AppendTrajectory(path, date string, rep MILPBenchReport) error {
	return appendTrajectoryEntry(path, distillTrajectory(date, rep))
}

// AppendSweepTrajectory appends a dated distillation of a -sweepbench
// run to the same series file the -benchmilp distillations land in.
func AppendSweepTrajectory(path, date string, rep SweepBenchReport) error {
	return appendTrajectoryEntry(path, TrajectoryEntry{
		Date:       date,
		GOMAXPROCS: rep.GOMAXPROCS,
		Sweep: &SweepTrajectory{
			Graph:   rep.Graph,
			Points:  len(rep.Points),
			WarmMS:  float64(rep.WarmNS) / 1e6,
			ColdMS:  float64(rep.ColdNS) / 1e6,
			Speedup: rep.Speedup,
			Warm:    rep.Warm,
			Reuse:   rep.Reuse,
		},
	})
}

// AppendLoadTrajectory appends a dated tpload distillation to the same
// series file the bench distillations land in.
func AppendLoadTrajectory(path, date string, gomaxprocs int, load LoadTrajectory) error {
	return appendTrajectoryEntry(path, TrajectoryEntry{
		Date:       date,
		GOMAXPROCS: gomaxprocs,
		Load:       &load,
	})
}

// appendTrajectoryEntry keeps every past entry as the raw JSON it was
// written as, so a field later dropped from TrajectoryEntry is not
// erased from history by the next append.
func appendTrajectoryEntry(path string, entry TrajectoryEntry) error {
	var series []json.RawMessage
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &series); err != nil {
			return fmt.Errorf("experiments: %s is not a trajectory series: %w", path, err)
		}
	case os.IsNotExist(err):
		// first run: start the series
	default:
		return err
	}
	next, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	series = append(series, next)
	out, err := json.MarshalIndent(series, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
