// Package core builds and solves the 0-1 ILP formulation of combined
// temporal partitioning and high-level synthesis from Kaul & Vemuri,
// "Optimal Temporal Partitioning and Synthesis for Reconfigurable
// Architectures" (DATE 1998).
//
// The nonlinear 0-1 model of the paper (products of partitioning and
// binding variables) is linearized either with Fortet's method or the
// tighter Glover/Woolsey method, optionally strengthened with the
// paper's tightening cuts (eqs. 28-30, 32), and solved by branch and
// bound over LP relaxations with the paper's variable-selection
// heuristic.
//
// Build names every column and row by an lp.Key of its family (y, x,
// dep, own, ...) and the family's indices; nothing is formatted while
// the model builds, and a name appears only when something reads it
// (MPS/LP output, errors, traces).
//
// Three paper typos are corrected, each marked at the emission site:
// eq. (7) is per (step, FU) rather than per step; eq. (23) caps u_pk
// from above (u <= sum z) so segments can share functional units;
// eq. (29) sums y_{t2,p} for p < p1 and eq. (31) sums y_{t2,p2} up to
// p2 = N (Figure 4 of the paper confirms both).
package core

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/milp"
	"repro/internal/trace"
)

// Linearization selects how 0-1 products are linearized.
type Linearization int

const (
	// LinGlover uses the Glover/Woolsey linearization: the product
	// variable is continuous in [0,1] with c >= a+b-1, c <= a, c <= b.
	// Tighter LP relaxations; the paper's choice.
	LinGlover Linearization = iota
	// LinFortet uses Fortet's linearization: the product variable is
	// binary with c >= a+b-1 and 2c <= a+b.
	LinFortet
)

func (l Linearization) String() string {
	if l == LinFortet {
		return "fortet"
	}
	return "glover"
}

// ParseLinearization parses a linearization name; "" means the default
// Glover/Woolsey method.
func ParseLinearization(s string) (Linearization, error) {
	switch s {
	case "", "glover":
		return LinGlover, nil
	case "fortet":
		return LinFortet, nil
	}
	return 0, fmt.Errorf("core: unknown linearization %q (want glover or fortet)", s)
}

// MarshalText encodes the linearization by name.
func (l Linearization) MarshalText() ([]byte, error) {
	return []byte(l.String()), nil
}

// UnmarshalText decodes a linearization name ("glover", "fortet").
func (l *Linearization) UnmarshalText(b []byte) error {
	v, err := ParseLinearization(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// CutSet is a bitmask of the tightening-cut families of Section 6.
type CutSet uint8

// Tightening-cut families (paper equation numbers).
const (
	Cut28 CutSet = 1 << iota // w vs. producer placement
	Cut29                    // w vs. consumer placement
	Cut30                    // w vs. co-located tasks
	Cut32                    // o + y - u link
	// CutsAll enables every family (also the meaning of a zero Cuts).
	CutsAll = Cut28 | Cut29 | Cut30 | Cut32
)

// Has reports whether family f is enabled, treating zero as all.
func (c CutSet) Has(f CutSet) bool {
	if c == 0 {
		c = CutsAll
	}
	return c&f != 0
}

// BranchRule selects the branch-and-bound variable-selection strategy.
type BranchRule int

const (
	// BranchPaper is the paper's heuristic (Section 8): fractional
	// y_tp in topological task priority order (lowest t, then lowest
	// p), 1-branch first; then any fractional u_pk; then x_ijk.
	BranchPaper BranchRule = iota
	// BranchFirstFrac picks the first fractional integer variable in
	// column order — the "leave it to the solver" naive baseline.
	BranchFirstFrac
	// BranchMostFrac picks the variable closest to 0.5.
	BranchMostFrac
)

func (b BranchRule) String() string {
	switch b {
	case BranchFirstFrac:
		return "first-fractional"
	case BranchMostFrac:
		return "most-fractional"
	default:
		return "paper"
	}
}

// ParseBranchRule parses a branching-rule name; "" means the paper's
// heuristic.
func ParseBranchRule(s string) (BranchRule, error) {
	switch s {
	case "", "paper":
		return BranchPaper, nil
	case "first", "first-fractional":
		return BranchFirstFrac, nil
	case "most", "most-fractional":
		return BranchMostFrac, nil
	}
	return 0, fmt.Errorf("core: unknown branch rule %q (want paper, first-fractional or most-fractional)", s)
}

// MarshalText encodes the branch rule by name.
func (b BranchRule) MarshalText() ([]byte, error) {
	return []byte(b.String()), nil
}

// UnmarshalText decodes a branch-rule name.
func (b *BranchRule) UnmarshalText(data []byte) error {
	v, err := ParseBranchRule(string(data))
	if err != nil {
		return err
	}
	*b = v
	return nil
}

// Options configure model generation and solving. It is the one
// canonical option set of the stack: the JSON tags define the wire
// form used by the solve service and the flow front-end, which embed
// this struct rather than re-declaring the knobs.
type Options struct {
	// N is the number of temporal partitions made available (the upper
	// bound of the formulation). 0 estimates N with the list-scheduling
	// heuristic of internal/sched.
	N int `json:"n,omitempty"`
	// L is the user-specified latency relaxation over the maximum ALAP.
	L int `json:"l,omitempty"`
	// Linearization selects Fortet or Glover product linearization.
	Linearization Linearization `json:"linearization,omitempty"`
	// Tightened adds the paper's cuts (28), (29), (30) and (32).
	Tightened bool `json:"tightened,omitempty"`
	// Cuts selects individual tightening families when Tightened is
	// set; the zero value enables all of them. Used by the ablation
	// benchmarks.
	Cuts CutSet `json:"cuts,omitempty"`
	// WPerProduct linearizes the w variables exactly per product term
	// (eqs. 4-5) instead of with the compact eq. (31). The paper's
	// preliminary model (Table 1) uses per-product w; the final model
	// uses the compact form.
	WPerProduct bool `json:"w_per_product,omitempty"`
	// Multicycle honors FU latencies greater than one control step
	// (the paper's Gebotys/OSCAR-style extension).
	Multicycle bool `json:"multicycle,omitempty"`
	// ExactSweep walks the task assignments before branch and bound and
	// settles each with the list scheduler or, where that fails, the
	// exact scheduler; when every candidate resolves, optimality is
	// proved without any LP search. The sweep primes itself. It runs on
	// at most 12 tasks; on more, the option primes branch and bound as
	// PrimeHeuristic does. Left off by the paper-faithful rows.
	ExactSweep bool `json:"exact_sweep,omitempty"`
	// Presolve runs the LP presolver (row reduction + bound
	// tightening) on the generated model before branch and bound. Off
	// by default so the reported Var/Const counts match the generated
	// formulation, as in the paper's tables.
	Presolve bool `json:"presolve,omitempty"`
	// DisableProbe turns off the exact-scheduling node probe, leaving
	// the pure LP-driven branch and bound of the paper. Useful for
	// runtime comparisons; expect far larger node counts.
	DisableProbe bool `json:"disable_probe,omitempty"`
	// PrimeHeuristic seeds branch and bound with the communication
	// cost of the best list-scheduled solution (sched.Baseline),
	// pruning subtrees that cannot beat it; a solve that runs the exact
	// sweep lets the sweep prime itself instead. An extension beyond
	// the paper; off by default so runtimes stay comparable to the
	// paper's algorithm.
	PrimeHeuristic bool `json:"prime_heuristic,omitempty"`
	// MaxNodes limits branch-and-bound nodes (0 = unlimited).
	MaxNodes int `json:"max_nodes,omitempty"`
	// TimeLimit bounds the solve wall-clock time (0 = unlimited). It is
	// one deadline for the whole solve: the exact sweep runs under its
	// first half and branch and bound under the rest. Not part of the
	// wire form: the service expresses it as time_limit_ms so JSON
	// clients never deal in nanoseconds.
	TimeLimit time.Duration `json:"-"`
	// Search groups every branch-and-bound search knob (workers, gate
	// threshold, branching rule, root cuts, diving), serialized
	// as options.search. The zero value is the paper's serial search.
	Search SearchOptions `json:"search"`
	// Certify enables the exact-arithmetic audit mode: the MILP verdict
	// is re-verified in rational arithmetic (internal/exact) and the
	// resulting certificate attached to Result.Certificate, the flight
	// recording and the trace stream. Part of the wire form — a service
	// job requesting certification is a different cache entry from the
	// plain solve, so cached certified results keep their certificates.
	Certify bool `json:"certify,omitempty"`
	// Trace receives structured solve events (model shape, root bound,
	// sampled node progress, incumbents, terminal status) when set.
	// Nil disables tracing at zero cost. Never serialized, and ignored
	// by the service's canonical cache key.
	Trace *trace.Tracer `json:"-"`
	// Record, when set, captures the branch-and-bound search lineage
	// into the flight recorder (milp.Options.Record) for offline replay
	// with cmd/tpreplay. Never serialized; never part of the cache key.
	Record *trace.Recorder `json:"-"`
	// Profile, when set, receives per-phase wall-time attribution from
	// the MILP node loop and the LP engine (milp.Options.Profile). Never
	// serialized; never part of the cache key.
	Profile *trace.Profile `json:"-"`
	// Span, when set, is the parent span of the solve: Build opens a
	// "build" child and the search opens its stage spans under it
	// (milp.Options.Span). Never serialized; never part of the cache
	// key.
	Span *trace.Span `json:"-"`
	// BlackBox, when set, is the per-job keep-last anomaly recorder
	// passed to the search (milp.Options.BlackBox). Never serialized;
	// never part of the cache key.
	BlackBox *trace.BlackBox `json:"-"`
	// Status, when set, is attached to the running search for live
	// introspection (milp.Options.Status). Never serialized; never
	// part of the cache key.
	Status *milp.SearchStatus `json:"-"`
	// PanicNode and NodeDelay are fault-injection test hooks forwarded
	// to milp.Options verbatim (panic at a global node index; sleep
	// per node). Never serialized; never part of the cache key.
	PanicNode int64         `json:"-"`
	NodeDelay time.Duration `json:"-"`
}

// Validate checks the options for values no layer accepts: negative
// sizes and limits, and enum values outside their range. It does not
// enforce instance-dependent conditions (those surface in Build).
func (o Options) Validate() error {
	if o.N < 0 {
		return fmt.Errorf("core: negative partition count N = %d", o.N)
	}
	if o.L < 0 {
		return fmt.Errorf("core: negative latency relaxation L = %d", o.L)
	}
	if o.Linearization < LinGlover || o.Linearization > LinFortet {
		return fmt.Errorf("core: unknown linearization %d", o.Linearization)
	}
	if o.Cuts > CutsAll {
		return fmt.Errorf("core: unknown cut families in mask %#x", o.Cuts)
	}
	if o.MaxNodes < 0 {
		return fmt.Errorf("core: negative node limit %d", o.MaxNodes)
	}
	if o.TimeLimit < 0 {
		return fmt.Errorf("core: negative time limit %v", o.TimeLimit)
	}
	return o.Search.Validate()
}

// Instance is a complete problem instance: the behavioral
// specification, the FU exploration set F, and the target device.
type Instance struct {
	Graph  *graph.Graph
	Alloc  *library.Allocation
	Device library.Device
}

// Validate checks that the instance is well formed and solvable in
// principle: valid graph, covering allocation, valid device.
func (in Instance) Validate() error {
	if in.Graph == nil || in.Alloc == nil {
		return fmt.Errorf("core: nil graph or allocation")
	}
	if err := in.Graph.Validate(); err != nil {
		return err
	}
	if err := in.Device.Validate(); err != nil {
		return err
	}
	if k, ok := in.Alloc.Covers(in.Graph); !ok {
		return fmt.Errorf("core: no functional unit executes op kind %q", k)
	}
	return nil
}
