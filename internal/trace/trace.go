// Package trace is the structured event layer of the solver stack: a
// single flat Event type emitted by the LP engine, the branch-and-bound
// search, the model builder and the solve service, fanned out to
// pluggable Sinks (an in-memory ring for live SSE streaming, an NDJSON
// writer for offline analysis, a fanout over several sinks).
//
// The layer is designed to cost nothing when disabled: a nil *Tracer is
// the valid "off" state, every method has a nil-receiver guard, and the
// hot solver loops gate event construction behind a single pointer
// comparison, so the disabled path performs no allocation and no atomic
// traffic. The zero-allocation property is guarded by
// testing.AllocsPerRun in this package's tests and exercised by the CI
// bench-smoke job.
package trace

import (
	"math"
	"sync"
	"time"
)

// Kind classifies an event. The taxonomy (documented in DESIGN.md):
//
//	model     — generated ILP size: vars/rows/nonzeros + per-family rows
//	root      — root LP relaxation solved; Bound is the root bound
//	node      — sampled branch-and-bound progress (every SampleEvery nodes)
//	incumbent — a new best integer-feasible solution was installed
//	bound     — the proved lower bound moved (parallel best-bound ratchet)
//	plan      — the solver chose its scheduler (work stealing or the
//	            serial fallback of the root-size gate); Msg names the
//	            chosen mode and explains a fallback
//	worker    — a parallel worker picked up a subproblem
//	steal     — a work-stealing worker stole a subproblem from a victim
//	            (Worker is the thief; Msg names the victim)
//	cut       — root strengthening appended a cutting plane (Msg names
//	            the cut family and row)
//	dive      — the root diving heuristic finished (Msg reports whether
//	            an incumbent was found)
//	status    — terminal branch-and-bound outcome with LP counters
//	result    — terminal core-level outcome (after extraction/verification)
//	job       — terminal service-level job transition
type Kind string

// Event kinds, ordered roughly by the layer that emits them.
const (
	KindModel     Kind = "model"
	KindRoot      Kind = "root"
	KindNode      Kind = "node"
	KindIncumbent Kind = "incumbent"
	KindBound     Kind = "bound"
	KindPlan      Kind = "plan"
	KindWorker    Kind = "worker"
	KindSteal     Kind = "steal"
	KindCut       Kind = "cut"
	KindDive      Kind = "dive"
	KindStatus    Kind = "status"
	KindResult    Kind = "result"
	KindJob       Kind = "job"
	// KindCertificate reports the exact-arithmetic certification of a
	// terminal verdict: Status carries the certificate kind
	// (optimal/feasible/infeasible) and Msg its one-line summary.
	KindCertificate Kind = "certificate"
	// KindStall is emitted by the service's gap-stall watchdog when a
	// running search's proved bound and incumbent have both been
	// stationary for the configured window: Bound/Incumbent/Gap carry
	// the frozen figures and Msg the window length.
	KindStall Kind = "stall"
	// KindPanic reports a recovered worker panic: Worker identifies the
	// panicking worker, Nodes the global node count at the time, and
	// Msg the panic value. The search stops and the job fails, but the
	// black box retains the events leading up to the crash.
	KindPanic Kind = "panic"
)

// Family is the per-constraint-family slice of a model event: all rows
// whose name shares the prefix before '[' (uniq, assign, t28, ...).
type Family struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	NNZ  int    `json:"nnz"`
}

// Event is one observation. It is a flat value type — no pointers
// except the optional Families payload of model events — so emitting
// and buffering copies it without touching the heap. Unused fields stay
// zero and are dropped from the JSON encoding.
//
// JSON cannot represent non-finite numbers, so Emit sanitizes the
// float fields: a ±Inf or NaN Incumbent/Bound/Gap is cleared (and
// HasIncumbent reset) rather than breaking the encoder.
type Event struct {
	// Seq is the tracer-assigned emission sequence number, starting at 1.
	Seq uint64 `json:"seq"`
	// TMS is the elapsed time since the tracer was created, in
	// milliseconds.
	TMS float64 `json:"t_ms"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`

	// Search progress (node/incumbent/bound/status events).
	Nodes        int64   `json:"nodes,omitempty"`
	Pivots       int64   `json:"pivots,omitempty"`
	HasIncumbent bool    `json:"has_incumbent,omitempty"`
	Incumbent    float64 `json:"incumbent,omitempty"`
	Bound        float64 `json:"bound,omitempty"`
	Gap          float64 `json:"gap,omitempty"`
	Worker       int     `json:"worker,omitempty"`

	// Model shape (model events). Density is the constraint-matrix
	// fill ratio NNZ / (Vars·Rows).
	Vars     int      `json:"vars,omitempty"`
	Rows     int      `json:"rows,omitempty"`
	NNZ      int      `json:"nnz,omitempty"`
	Density  float64  `json:"density,omitempty"`
	Families []Family `json:"families,omitempty"`

	// LP engine counters (status events; see lp.Counters).
	Refactorizations int64 `json:"refactorizations,omitempty"`
	FarkasChecks     int64 `json:"farkas_checks,omitempty"`
	FarkasRejected   int64 `json:"farkas_rejected,omitempty"`
	WindowScans      int64 `json:"window_scans,omitempty"`
	CandidateHits    int64 `json:"candidate_hits,omitempty"`

	// LP-engine summary (status events): the factorization/solve
	// counters — the same LPStat a recording footer carries, embedded so
	// its JSON keys stay flat.
	// FillIn is FactorNNZ / BasisNNZ, the LU fill ratio of the last
	// factorized basis.
	LPStat
	FillIn float64 `json:"fill_in,omitempty"`

	// Status is the terminal state string (status/result/job events).
	Status string `json:"status,omitempty"`
	// Msg carries free-form context (model summary, error text, ...).
	Msg string `json:"msg,omitempty"`
}

// Sink receives emitted events. Implementations must be safe for
// concurrent Emit calls; the Tracer serializes its own emissions but a
// Sink may be shared between tracers (e.g. a service-wide log sink).
type Sink interface {
	Emit(Event)
}

// Tracer stamps events with a sequence number and elapsed time and
// forwards them to its sink. A nil *Tracer is the disabled state: all
// methods are safe to call on it and do nothing, so call sites need no
// conditional plumbing — hot loops should still gate on Enabled (a
// single pointer comparison) to skip event construction entirely.
type Tracer struct {
	mu     sync.Mutex
	sink   Sink
	start  time.Time
	seq    uint64
	sample int64
}

// New returns a tracer emitting to sink with the default node-event
// sampling interval of 64.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink, start: time.Now(), sample: 64}
}

// Enabled reports whether the tracer is active. It is the cheap guard
// for hot paths: nil receivers return false.
func (t *Tracer) Enabled() bool { return t != nil }

// SampleEvery returns the node-event sampling interval (node events are
// emitted every n-th explored node); 64 on a fresh tracer, 64 on nil.
func (t *Tracer) SampleEvery() int64 {
	if t == nil || t.sample <= 0 {
		return 64
	}
	return t.sample
}

// SetSampleEvery sets the node-event sampling interval; n < 1 resets to
// the default. No-op on a nil tracer.
func (t *Tracer) SetSampleEvery(n int64) {
	if t == nil {
		return
	}
	if n < 1 {
		n = 64
	}
	t.mu.Lock()
	t.sample = n
	t.mu.Unlock()
}

// Emit stamps e with the next sequence number and the elapsed time and
// forwards it to the sink. Non-finite float fields are sanitized (JSON
// cannot carry ±Inf: an unset incumbent starts at +Inf in the solver).
// No-op on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil || t.sink == nil {
		return
	}
	if !isFinite(e.Incumbent) {
		e.Incumbent, e.HasIncumbent = 0, false
	}
	if !isFinite(e.Bound) {
		e.Bound = 0
	}
	if !isFinite(e.Gap) {
		e.Gap = 0
	}
	t.mu.Lock()
	t.seq++
	e.Seq = t.seq
	e.TMS = float64(time.Since(t.start)) / float64(time.Millisecond)
	t.sink.Emit(e)
	t.mu.Unlock()
}

func isFinite(v float64) bool {
	return !math.IsInf(v, 0) && !math.IsNaN(v)
}
