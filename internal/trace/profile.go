package trace

// Phase identifies where solver wall time is spent. The taxonomy has
// two disjoint levels (documented in DESIGN.md):
//
// Node-level phases partition the time of the branch-and-bound search;
// their sum approximates the solve's wall time (the remainder is tree
// bookkeeping):
//
//	node-lp       — LP solves/re-optimizations of search nodes
//	probe         — the exact-scheduling node probe hook
//	complete      — the auxiliary-variable completion hook
//	branch-select — branching-variable selection
//	verify        — incumbent feasibility re-checks against original data
//
// LP-internal phases subdivide node-lp (they overlap it, never each
// other): where the simplex engine itself spends its pivots:
//
//	pricing       — entering-variable/leaving-row pricing scans
//	ratio-test    — primal and dual ratio tests
//	pivot-update  — the pivot's beta/reduced-cost/devex/eta update
//	refactorize   — resets to the all-logical basis (Solve, and the
//	                retry after a rejected infeasibility verdict)
//	farkas        — Farkas certification of infeasibility verdicts
//	ftran         — forward solves B^{-1} a (entering columns,
//	                bound-shift column solves)
//	btran         — backward solves B^{-T} e_r and the pivot-row
//	                scatter they feed
//	factorize     — sparse LU (re)factorizations of the basis
//
// Root-level phases happen once, before the tree search, and belong to
// neither group (they are outside the node-level sum):
//
//	cut-gen       — root strengthening: cut separation, row appends and
//	                the augmented-root re-optimization
//	dive          — the root diving heuristic's LP dives
//
// Service-level phases are observed outside the solver entirely:
//
//	queue-wait    — submit-to-worker-pickup latency of a service job
type Phase int

// Phases, grouped by level. NumPhases bounds the enum for array sizing.
// New phases are appended so recorded phase indices stay stable.
const (
	PhaseNodeLP Phase = iota
	PhaseProbe
	PhaseComplete
	PhaseBranchSelect
	PhaseVerify
	PhasePricing
	PhaseRatio
	PhaseUpdate
	PhaseRefactorize
	PhaseFarkas
	PhaseFTRAN
	PhaseBTRAN
	PhaseFactorize
	PhaseCutGen
	PhaseDive
	PhaseQueueWait
	NumPhases
)

var phaseNames = [NumPhases]string{
	PhaseNodeLP:       "node-lp",
	PhaseProbe:        "probe",
	PhaseComplete:     "complete",
	PhaseBranchSelect: "branch-select",
	PhaseVerify:       "verify",
	PhasePricing:      "pricing",
	PhaseRatio:        "ratio-test",
	PhaseUpdate:       "pivot-update",
	PhaseRefactorize:  "refactorize",
	PhaseFarkas:       "farkas",
	PhaseFTRAN:        "ftran",
	PhaseBTRAN:        "btran",
	PhaseFactorize:    "factorize",
	PhaseCutGen:       "cut-gen",
	PhaseDive:         "dive",
	PhaseQueueWait:    "queue-wait",
}

func (p Phase) String() string {
	if p < 0 || p >= NumPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// NodeLevel reports whether the phase belongs to the node-level group,
// whose durations are disjoint and sum to (approximately) the search
// wall time. LP-internal phases subdivide PhaseNodeLP and must not be
// added to the node-level sum.
func (p Phase) NodeLevel() bool { return p >= PhaseNodeLP && p <= PhaseVerify }

// ParsePhase resolves a phase name as produced by Phase.String; ok is
// false for unknown names.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// Profile aggregates per-phase wall time into one log-bucketed
// histogram per phase. A nil *Profile is the valid "off" state: Observe
// on it is a no-op behind a single pointer compare, so hot loops need
// no conditional plumbing. A non-nil Profile is safe for concurrent use
// — parallel branch-and-bound workers and the service's per-flight
// merge all target atomic buckets.
type Profile struct {
	h [NumPhases]Hist
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Observe records ns nanoseconds under phase p. No-op on a nil profile
// or an out-of-range phase.
func (pr *Profile) Observe(p Phase, ns int64) {
	if pr == nil || p < 0 || p >= NumPhases {
		return
	}
	pr.h[p].Observe(ns)
}

// Hist returns the histogram of phase p (nil on a nil profile).
func (pr *Profile) Hist(p Phase) *Hist {
	if pr == nil || p < 0 || p >= NumPhases {
		return nil
	}
	return &pr.h[p]
}

// Merge adds o's histograms into pr. No-op when either side is nil.
func (pr *Profile) Merge(o *Profile) {
	if pr == nil || o == nil {
		return
	}
	for i := range pr.h {
		pr.h[i].Merge(&o.h[i])
	}
}

// PhaseStat is the snapshot of one phase: its name, observation count,
// total nanoseconds and the non-empty histogram buckets. It is the
// JSON-stable form used by recordings and the service stats/metrics.
type PhaseStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	SumNS   int64        `json:"sum_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot returns the non-empty phases in enum order. Nil profiles
// snapshot to nil.
func (pr *Profile) Snapshot() []PhaseStat {
	if pr == nil {
		return nil
	}
	var out []PhaseStat
	for i := range pr.h {
		h := &pr.h[i]
		if h.Count() == 0 {
			continue
		}
		out = append(out, PhaseStat{
			Name:    Phase(i).String(),
			Count:   h.Count(),
			SumNS:   h.SumNS(),
			Buckets: h.Buckets(),
		})
	}
	return out
}
