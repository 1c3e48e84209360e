package core

import (
	"fmt"

	"repro/internal/milp"
)

// Toggle is a three-state switch: auto (defer to the solver's policy),
// on, or off. The zero value is auto, so omitted JSON fields inherit
// the default behavior.
type Toggle int

const (
	// ToggleAuto defers to the solver: root strengthening turns on for
	// parallel searches, off for serial ones.
	ToggleAuto Toggle = iota
	// ToggleOn forces the feature on.
	ToggleOn
	// ToggleOff forces the feature off.
	ToggleOff
)

func (t Toggle) String() string {
	switch t {
	case ToggleOn:
		return "on"
	case ToggleOff:
		return "off"
	default:
		return "auto"
	}
}

// ParseToggle parses a toggle name; "" means auto.
func ParseToggle(s string) (Toggle, error) {
	switch s {
	case "", "auto":
		return ToggleAuto, nil
	case "on", "true", "1":
		return ToggleOn, nil
	case "off", "false", "0":
		return ToggleOff, nil
	}
	return 0, fmt.Errorf("core: unknown toggle %q (want auto, on or off)", s)
}

// MarshalText encodes the toggle by name.
func (t Toggle) MarshalText() ([]byte, error) {
	return []byte(t.String()), nil
}

// UnmarshalText decodes a toggle name ("auto", "on", "off").
func (t *Toggle) UnmarshalText(b []byte) error {
	v, err := ParseToggle(string(b))
	if err != nil {
		return err
	}
	*t = v
	return nil
}

// SearchOptions groups every branch-and-bound search knob, serialized
// as the "search" object of the wire form. It is the only place these
// knobs are set; the zero value is the paper's serial search.
type SearchOptions struct {
	// Parallelism sets the number of branch-and-bound workers
	// (milp.Options.Parallelism). 0 or 1 keeps the serial,
	// deterministic search; higher values spread the tree across that
	// many goroutines over cloned LP solvers with a shared incumbent.
	// The optimum and its feasibility are identical either way — only
	// node/pivot counts and runtime change.
	Parallelism int `json:"parallelism,omitempty"`
	// Threshold gates Parallelism behind the root-size estimate of
	// milp.Options.ParallelThreshold: instances whose root tableau
	// falls under it run serially even when Parallelism > 1 (the
	// decision is emitted as a "plan" trace event). 0 applies
	// milp.DefaultParallelThreshold; negative disables the gate.
	Threshold int `json:"threshold,omitempty"`
	// Mode picks serial, work-stealing or portfolio search; auto (the
	// zero value) lets the size gate decide.
	Mode milp.SearchMode `json:"mode,omitempty"`
	// Branch selects the branching rule; the zero value is the paper's
	// rule, BranchPaper.
	Branch BranchRule `json:"branch,omitempty"`
	// Cuts controls root-node cut strengthening (Gomory + cover cuts).
	// Auto enables it for parallel searches.
	Cuts Toggle `json:"cuts,omitempty"`
	// Dive controls the root diving heuristic that seeds an early
	// incumbent. Auto enables it for parallel searches.
	Dive Toggle `json:"dive,omitempty"`
}

// Validate checks the search options for values no layer accepts.
func (s SearchOptions) Validate() error {
	if s.Parallelism < 0 {
		return fmt.Errorf("core: negative search parallelism %d", s.Parallelism)
	}
	if s.Mode < milp.ModeAuto || s.Mode > milp.ModePortfolio {
		return fmt.Errorf("core: unknown search mode %d", s.Mode)
	}
	if s.Branch < BranchPaper || s.Branch > BranchMostFrac {
		return fmt.Errorf("core: unknown branch rule %d", s.Branch)
	}
	if s.Cuts < ToggleAuto || s.Cuts > ToggleOff {
		return fmt.Errorf("core: unknown cuts toggle %d", s.Cuts)
	}
	if s.Dive < ToggleAuto || s.Dive > ToggleOff {
		return fmt.Errorf("core: unknown dive toggle %d", s.Dive)
	}
	return nil
}
