package service

// Metrics: internal counters guarded by Service.mu and the exported
// JSON-friendly snapshots served by GET /metrics.

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/trace"
)

// counters accumulates service-lifetime metrics. Guarded by Service.mu.
type counters struct {
	submitted uint64
	completed uint64
	failed    uint64
	cancelled uint64

	cacheHits   uint64
	cacheMisses uint64

	amends      uint64
	sweeps      uint64
	sweepPoints uint64
	batches     uint64

	shedQueue uint64
	shedRate  uint64

	queueWait    time.Duration
	maxQueueWait time.Duration
	solveTime    time.Duration
	maxSolve     time.Duration

	nodes  uint64
	pivots uint64
}

// Stats is a point-in-time snapshot of the service metrics, shaped for
// JSON serving.
type Stats struct {
	// Workers is the configured solver-goroutine count.
	Workers int `json:"workers"`
	// Queued and Running are gauges of the current load.
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// InFlight counts distinct instances currently solving (after
	// deduplication); CachedResults the completed results held by the
	// delta engine's cache (Delta.Entries).
	InFlight      int `json:"in_flight"`
	CachedResults int `json:"cached_results"`

	// Submitted/Completed/Failed/Cancelled are job-lifetime counters.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`

	// CacheHits counts jobs served from the result cache or attached
	// to an in-flight identical solve; CacheMisses counts fresh solves.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`

	// Amends counts jobs created via POST /v1/jobs/{id}/amend; Sweeps
	// and SweepPoints count completed POST /v1/sweep calls and their grid
	// points; Batches counts batch submissions, each sweep included.
	Amends      uint64 `json:"amends"`
	Sweeps      uint64 `json:"sweeps"`
	SweepPoints uint64 `json:"sweep_points"`
	Batches     uint64 `json:"batches"`

	// Deferred is a gauge of batch-chain jobs holding queue capacity
	// while waiting for their warm-start predecessor.
	Deferred int `json:"deferred"`

	// Shed* count rejected submissions by admission mechanism: queue
	// budget exhausted, token bucket empty. Every shed became an HTTP
	// 429 with a Retry-After header.
	ShedQueueFull   uint64 `json:"shed_queue_full"`
	ShedRateLimited uint64 `json:"shed_rate_limited"`

	// Delta is the delta engine's dispatch accounting: how many fresh
	// solves ran, how many were warm-started from a cached base, and
	// how many were answered by monotone conclusion reuse without any
	// search.
	Delta delta.Metrics `json:"delta"`

	// TotalNodes and TotalLPIterations accumulate solver effort
	// (branch-and-bound nodes, simplex pivots) over fresh solves only,
	// so a stalled counter demonstrates that cancellation really
	// stopped the search.
	TotalNodes        uint64 `json:"total_nodes"`
	TotalLPIterations uint64 `json:"total_lp_iterations"`

	// Latency aggregates, in milliseconds.
	TotalQueueWaitMS float64 `json:"total_queue_wait_ms"`
	MaxQueueWaitMS   float64 `json:"max_queue_wait_ms"`
	TotalSolveMS     float64 `json:"total_solve_ms"`
	MaxSolveMS       float64 `json:"max_solve_ms"`

	// Phases are the per-phase solver wall-time histograms (node-lp,
	// probe, pricing, ratio-test, ...) aggregated over every fresh
	// solve; see trace.Phase for the taxonomy. Served as native
	// histograms on /v1/metrics.
	Phases []trace.PhaseStat `json:"phases,omitempty"`
}

func (c *counters) snapshot(workers, queued, running, inFlight, cached int) Stats {
	return Stats{
		Workers:           workers,
		Queued:            queued,
		Running:           running,
		InFlight:          inFlight,
		CachedResults:     cached,
		Submitted:         c.submitted,
		Completed:         c.completed,
		Failed:            c.failed,
		Cancelled:         c.cancelled,
		CacheHits:         c.cacheHits,
		CacheMisses:       c.cacheMisses,
		Amends:            c.amends,
		Sweeps:            c.sweeps,
		SweepPoints:       c.sweepPoints,
		Batches:           c.batches,
		ShedQueueFull:     c.shedQueue,
		ShedRateLimited:   c.shedRate,
		TotalNodes:        c.nodes,
		TotalLPIterations: c.pivots,
		TotalQueueWaitMS:  durMS(c.queueWait),
		MaxQueueWaitMS:    durMS(c.maxQueueWait),
		TotalSolveMS:      durMS(c.solveTime),
		MaxSolveMS:        durMS(c.maxSolve),
	}
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), served by GET /v1/metrics. Only
// fmt — the format is simple enough that a client dependency would be
// all cost.
func (st Stats) WritePrometheus(w io.Writer) {
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	bi := Version()
	fmt.Fprintf(w, "# HELP tpserve_build_info Build identity of the running binary (constant 1).\n# TYPE tpserve_build_info gauge\n")
	fmt.Fprintf(w, "tpserve_build_info{version=%q,revision=%q,go=%q} 1\n", bi.Version, bi.Revision, bi.Go)
	gauge("tpserve_workers", "Configured solver goroutines.", float64(st.Workers))
	gauge("tpserve_jobs_queued", "Jobs waiting in the queue.", float64(st.Queued))
	gauge("tpserve_jobs_running", "Jobs currently solving.", float64(st.Running))
	gauge("tpserve_flights_in_progress", "Distinct instances solving after deduplication.", float64(st.InFlight))
	gauge("tpserve_cached_results", "Completed results held in the delta engine's cache.", float64(st.CachedResults))
	counter("tpserve_jobs_submitted_total", "Jobs submitted.", float64(st.Submitted))
	counter("tpserve_jobs_completed_total", "Jobs finished successfully.", float64(st.Completed))
	counter("tpserve_jobs_failed_total", "Jobs finished with an error.", float64(st.Failed))
	counter("tpserve_jobs_cancelled_total", "Jobs cancelled.", float64(st.Cancelled))
	counter("tpserve_cache_hits_total", "Jobs served from the cache or an in-flight solve.", float64(st.CacheHits))
	counter("tpserve_cache_misses_total", "Fresh solves.", float64(st.CacheMisses))
	counter("tpserve_amends_total", "Jobs created by amending a finished job.", float64(st.Amends))
	counter("tpserve_sweeps_total", "Completed design-space sweeps.", float64(st.Sweeps))
	counter("tpserve_sweep_points_total", "Grid points of completed sweeps.", float64(st.SweepPoints))
	counter("tpserve_batches_total", "Batch submissions.", float64(st.Batches))
	gauge("tpserve_jobs_deferred", "Batch-chain jobs holding queue capacity awaiting a warm-start predecessor.", float64(st.Deferred))
	counter("tpserve_shed_queue_full_total", "Submissions shed by the per-priority queue budget.", float64(st.ShedQueueFull))
	counter("tpserve_shed_rate_limited_total", "Submissions shed by the admission token bucket.", float64(st.ShedRateLimited))
	counter("tpserve_delta_warm_total", "Solves warm-started from a cached root basis.", float64(st.Delta.Warm))
	counter("tpserve_delta_reuse_total", "Solves answered by monotone conclusion reuse.", float64(st.Delta.Reuse))
	counter("tpserve_delta_structural_total", "Amends classified structural (cold re-solve).", float64(st.Delta.Structural))
	counter("tpserve_bb_nodes_total", "Branch-and-bound nodes explored by fresh solves.", float64(st.TotalNodes))
	counter("tpserve_lp_pivots_total", "Simplex pivots performed by fresh solves.", float64(st.TotalLPIterations))
	counter("tpserve_queue_wait_seconds_total", "Cumulative queue wait.", st.TotalQueueWaitMS/1000)
	gauge("tpserve_queue_wait_seconds_max", "Largest observed queue wait.", st.MaxQueueWaitMS/1000)
	counter("tpserve_solve_seconds_total", "Cumulative solve wall time.", st.TotalSolveMS/1000)
	gauge("tpserve_solve_seconds_max", "Largest observed solve wall time.", st.MaxSolveMS/1000)
	for _, ph := range st.Phases {
		if ph.Name == "queue-wait" {
			// the queue-wait phase also gets a dedicated histogram under
			// its own metric name, so dashboards need not know the
			// phase-label taxonomy to graph submission latency
			writeHist(w, "tpserve_queue_wait_seconds", "Submit-to-pickup queue wait per job.", ph)
		}
	}
	if len(st.Phases) > 0 {
		st.writePhaseHistograms(w)
	}
}

// writeHist renders one trace.PhaseStat as an unlabeled Prometheus
// histogram. The trace.Hist buckets are powers of two in nanoseconds;
// bucket pow becomes a cumulative le bound of 2^pow ns in seconds.
func writeHist(w io.Writer, name, help string, ph trace.PhaseStat) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := int64(0)
	for _, b := range ph.Buckets {
		cum += b.N
		le := float64(int64(1)<<uint(b.Pow)) / 1e9
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, ph.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(ph.SumNS)/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, ph.Count)
}

// writePhaseHistograms renders the per-phase wall-time attribution as
// one Prometheus histogram per phase, labeled {phase="..."}. The
// trace.Hist buckets are powers of two in nanoseconds; each bucket pow
// becomes a cumulative le bound of 2^pow ns expressed in seconds.
func (st Stats) writePhaseHistograms(w io.Writer) {
	const name = "tpserve_phase_seconds"
	fmt.Fprintf(w, "# HELP %s Solver wall time by phase (see trace.Phase taxonomy).\n# TYPE %s histogram\n", name, name)
	for _, ph := range st.Phases {
		cum := int64(0)
		for _, b := range ph.Buckets {
			cum += b.N
			// bucket b holds durations in [2^(pow-1), 2^pow) ns
			le := float64(int64(1)<<uint(b.Pow)) / 1e9
			fmt.Fprintf(w, "%s_bucket{phase=%q,le=%q} %d\n", name, ph.Name, trimFloat(le), cum)
		}
		fmt.Fprintf(w, "%s_bucket{phase=%q,le=\"+Inf\"} %d\n", name, ph.Name, ph.Count)
		fmt.Fprintf(w, "%s_sum{phase=%q} %g\n", name, ph.Name, float64(ph.SumNS)/1e9)
		fmt.Fprintf(w, "%s_count{phase=%q} %d\n", name, ph.Name, ph.Count)
	}
}

// trimFloat formats a le bound compactly (Prometheus compares le values
// textually across scrapes, so the encoding must be stable).
func trimFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}

// JobInfo is the JSON view of a job's state.
type JobInfo struct {
	ID       string    `json:"id"`
	Status   JobStatus `json:"status"`
	Priority int       `json:"priority,omitempty"`
	// CacheHit reports that the job was served from the result cache
	// or deduplicated onto an identical in-flight solve.
	CacheHit    bool      `json:"cache_hit,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	SolveMS     float64   `json:"solve_ms"`
	Result      *Outcome  `json:"result,omitempty"`
	Error       string    `json:"error,omitempty"`
	// Amend is the amend lineage of a job created through
	// POST /v1/jobs/{id}/amend; nil for directly submitted jobs.
	Amend *AmendInfo `json:"amend,omitempty"`
	// Batch is the batch ID for jobs submitted through POST /v1/batch.
	Batch string `json:"batch,omitempty"`
	// Delta is the delta engine's dispatch for batch warm-chain jobs:
	// which path (cold/warm/reuse) the solve took against its chain
	// predecessor's cached build. Amended jobs report the same through
	// Amend instead.
	Delta *DeltaDispatch `json:"delta,omitempty"`
	// TraceID names the job's span tree; the trace id of the caller's
	// traceparent header when the submission carried one.
	TraceID string `json:"trace_id,omitempty"`
	// Stalled reports that the gap-stall watchdog fired during the
	// job's solve.
	Stalled bool `json:"stalled,omitempty"`
	// BlackBox is the flush reason when the job's black-box recorder
	// froze on an anomaly (worker-panic, deadline, cancelled,
	// certify-failed, stall); empty for a healthy job. The capture is
	// at GET /v1/jobs/{id}/blackbox.
	BlackBox string `json:"black_box,omitempty"`
}

// AmendInfo is the JSON view of a job's amend lineage: the base job,
// the generation (1 for the first amend of a cold job) and the delta
// engine's dispatch — the edit classification against the base build,
// the re-solve path (cold/warm/reuse) and whether the base's solution
// re-verified and primed the search.
type AmendInfo struct {
	Of         string `json:"of"`
	Generation int    `json:"generation"`
	Class      string `json:"class,omitempty"`
	Path       string `json:"path,omitempty"`
	Primed     bool   `json:"primed,omitempty"`
}

// DeltaDispatch is the JSON view of a delta-engine dispatch for a
// batch warm-chain job: the edit classification against the chain
// predecessor's build, the path taken (cold/warm/reuse) and whether
// the predecessor's solution re-verified and primed the search.
type DeltaDispatch struct {
	Class  string `json:"class,omitempty"`
	Path   string `json:"path,omitempty"`
	Primed bool   `json:"primed,omitempty"`
}

// Outcome is the JSON view of a core.Result.
type Outcome struct {
	Feasible  bool `json:"feasible"`
	Optimal   bool `json:"optimal"`
	Cancelled bool `json:"cancelled,omitempty"`
	// Comm is the optimized objective: total inter-segment data units.
	Comm int `json:"comm,omitempty"`
	// N is the number of partitions made available to the solution.
	N int `json:"n,omitempty"`
	// TaskPartition[t] is the 1-based segment of task t; OpStep[i] and
	// OpUnit[i] are the control step and bound FU of operation i.
	TaskPartition []int `json:"task_partition,omitempty"`
	OpStep        []int `json:"op_step,omitempty"`
	OpUnit        []int `json:"op_unit,omitempty"`
	// Vars and Rows are the generated model size (the paper's
	// Var/Const columns); Nodes and LPIterations the solver effort.
	Vars         int     `json:"vars"`
	Rows         int     `json:"rows"`
	Nodes        int     `json:"nodes"`
	LPIterations int     `json:"lp_iterations"`
	RuntimeMS    float64 `json:"runtime_ms"`
}

func outcomeOf(res *core.Result) *Outcome {
	o := &Outcome{
		Feasible:     res.Feasible,
		Optimal:      res.Optimal,
		Cancelled:    res.Cancelled,
		Vars:         res.Stats.Vars,
		Rows:         res.Stats.Rows,
		Nodes:        res.Nodes,
		LPIterations: res.LPIterations,
		RuntimeMS:    durMS(res.Runtime),
	}
	if res.Solution != nil {
		o.Comm = res.Solution.Comm
		o.N = res.Solution.N
		o.TaskPartition = res.Solution.TaskPartition
		o.OpStep = res.Solution.OpStep
		o.OpUnit = res.Solution.OpUnit
	}
	return o
}
