package service

// The JSON-facing request model: a behavioral specification in the
// graph text format, an FU exploration set, a target device and solver
// options, compiled into a core.Instance plus a canonical cache key.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
)

// Request is one solve submitted to the service.
type Request struct {
	// Graph is the behavioral specification in the text format of
	// internal/graph (the same format cmd/tpgen emits and cmd/tpsyn
	// reads). The graph name participates in the instance identity:
	// identically named identical graphs deduplicate, renamed copies
	// do not.
	Graph string `json:"graph"`
	// Allocation maps FU type names of the default component library
	// (add16, mul16, sub16, ...) to instance counts — the exploration
	// set F. Empty means the paper's default 2 adders + 2 multipliers
	// + 1 subtracter.
	Allocation map[string]int `json:"allocation,omitempty"`
	// Device selects the target device; the zero value is the XC4010.
	Device DeviceSpec `json:"device,omitempty"`
	// Options tune the formulation and the solver.
	Options SolveOptions `json:"options,omitempty"`
	// Priority orders the queue: higher runs sooner; equal priorities
	// run FIFO.
	Priority int `json:"priority,omitempty"`
	// TraceParent is the W3C traceparent header of the submitting HTTP
	// request, when one was sent: the job's span tree adopts its trace
	// id so tpserve spans join the caller's distributed trace. Set by
	// the HTTP handlers, never decoded from the JSON body.
	TraceParent string `json:"-"`
}

// DeviceSpec names a built-in device and/or overrides its parameters.
// In JSON it may be either a plain string ("xc4010") or an object.
type DeviceSpec struct {
	// Name is "xc4010" (default) or "xc4025".
	Name string `json:"name,omitempty"`
	// CapacityFG overrides the device capacity C when positive.
	CapacityFG int `json:"capacity_fg,omitempty"`
	// Alpha overrides the logic-optimization factor when positive.
	Alpha float64 `json:"alpha,omitempty"`
	// ScratchMem overrides the scratch memory size Ms when positive.
	ScratchMem int `json:"scratch_mem,omitempty"`
}

// UnmarshalJSON accepts both "xc4010" and {"name": "xc4010", ...}.
func (d *DeviceSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &d.Name)
	}
	type raw DeviceSpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode((*raw)(d))
}

func (d DeviceSpec) resolve() (library.Device, error) {
	var dev library.Device
	switch strings.ToLower(d.Name) {
	case "", "xc4010":
		dev = library.XC4010()
	case "xc4025":
		dev = library.XC4025()
	default:
		return dev, fmt.Errorf("service: unknown device %q (want xc4010 or xc4025)", d.Name)
	}
	if d.CapacityFG > 0 {
		dev.CapacityFG = d.CapacityFG
	}
	if d.Alpha > 0 {
		dev.Alpha = d.Alpha
	}
	if d.ScratchMem > 0 {
		dev.ScratchMem = d.ScratchMem
	}
	return dev, dev.Validate()
}

// SolveOptions is the JSON view of core.Options: the canonical option
// struct is embedded verbatim — its JSON tags define the wire names
// (n, l, linearization, tightened, search, ...) — plus the
// service-level fields that have no core counterpart. The service
// defaults to the tightened model, so absent both "tightened" and
// "base" the cuts are on; "base": true turns them off; an explicit
// "tightened": true always wins. The HTTP API rejects unknown and
// removed names (see removedOptions).
type SolveOptions struct {
	core.Options

	// Base disables the Section-6 tightening cuts (the untightened
	// Table-1 model).
	Base bool `json:"base,omitempty"`
	// TimeLimitMS bounds the solve wall-clock time in milliseconds; 0
	// applies the service's default timeout. This is the wire form of
	// core.Options.TimeLimit, which never crosses the API as
	// nanoseconds.
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// Record attaches a search-tree flight recorder to the solve. A
	// recorded job always runs fresh — it bypasses the result cache and
	// singleflight deduplication, since a shared or cached result has no
	// recording of its own — and the capture is downloadable from
	// GET /v1/jobs/{id}/recording once the job finishes. The produced
	// result is still cached for later unrecorded requests.
	Record bool `json:"record,omitempty"`
}

// AmendRequest is a partial edit of a finished job's request, applied
// as an overlay: nil fields inherit the base job's value. The merged
// request becomes a new job whose solve is dispatched through the
// delta engine against the base job's cached build, so small edits
// (capacity, scratch memory, α, bounds) re-solve warm instead of cold.
type AmendRequest struct {
	// Graph replaces the behavioral specification (a structural edit:
	// the re-solve runs cold).
	Graph *string `json:"graph,omitempty"`
	// Allocation replaces the exploration set wholesale when non-nil.
	Allocation map[string]int `json:"allocation,omitempty"`
	// Device overlays the base device field-wise: only the fields set
	// here change, so {"device":{"capacity_fg":300}} edits C alone.
	Device *DeviceSpec `json:"device,omitempty"`
	// Options replaces the solver options wholesale when non-nil.
	Options *SolveOptions `json:"options,omitempty"`
	// Priority replaces the queue priority when non-nil.
	Priority *int `json:"priority,omitempty"`
}

// overlay merges the amendment onto the base request, returning the
// complete request of the amended job.
func (a *AmendRequest) overlay(base *Request) *Request {
	merged := *base
	if a.Graph != nil {
		merged.Graph = *a.Graph
	}
	if a.Allocation != nil {
		merged.Allocation = a.Allocation
	}
	if a.Device != nil {
		d := base.Device
		if a.Device.Name != "" {
			d.Name = a.Device.Name
		}
		if a.Device.CapacityFG > 0 {
			d.CapacityFG = a.Device.CapacityFG
		}
		if a.Device.Alpha > 0 {
			d.Alpha = a.Device.Alpha
		}
		if a.Device.ScratchMem > 0 {
			d.ScratchMem = a.Device.ScratchMem
		}
		merged.Device = d
	}
	if a.Options != nil {
		merged.Options = *a.Options
	}
	if a.Priority != nil {
		merged.Priority = *a.Priority
	}
	return &merged
}

// instance is a compiled request: the validated core instance and
// options plus the canonical dedup/cache key. record marks a request
// that must run fresh under a flight recorder.
type instance struct {
	inst   core.Instance
	opt    core.Options
	key    string
	record bool
	// chain is the structural signature used by batch warm-chaining:
	// the canonical key with the device zeroed out. Batch items sharing
	// a chain signature differ only in device parameters (capacity,
	// alpha, scratch memory) — exactly the bound edits the delta engine
	// can re-solve warm from a neighbor's cached build.
	chain string
}

// compile parses and validates the request. The default timeout fills
// an unset time limit, so every member of a singleflight group shares
// one effective deadline (the limit is part of the cache key); the
// default parallelism fills an unset worker count the same way.
func (r *Request) compile(defaultTimeout time.Duration, defaultParallelism int) (*instance, error) {
	if strings.TrimSpace(r.Graph) == "" {
		return nil, fmt.Errorf("service: empty graph")
	}
	g, err := graph.ParseString(r.Graph)
	if err != nil {
		return nil, fmt.Errorf("service: parsing graph: %w", err)
	}
	lib := library.DefaultLibrary()
	var alloc *library.Allocation
	if len(r.Allocation) == 0 {
		alloc, err = library.PaperAllocation(lib, 2, 2, 1)
	} else {
		alloc, err = library.NewAllocation(lib, r.Allocation)
	}
	if err != nil {
		return nil, fmt.Errorf("service: building allocation: %w", err)
	}
	dev, err := r.Device.resolve()
	if err != nil {
		return nil, err
	}
	opt := r.Options.Options
	// observability hooks are attached per job by the service, never
	// taken from the wire (the JSON tags hide them, but a Go caller
	// could have set the pointers directly)
	opt.Trace = nil
	opt.Record = nil
	opt.Profile = nil
	opt.Span = nil
	opt.BlackBox = nil
	opt.Status = nil
	opt.PanicNode = 0
	opt.NodeDelay = 0
	opt.Tightened = opt.Tightened || !r.Options.Base
	opt.TimeLimit = defaultTimeout
	if r.Options.TimeLimitMS > 0 {
		opt.TimeLimit = time.Duration(r.Options.TimeLimitMS) * time.Millisecond
	}
	if opt.Search.Parallelism == 0 {
		opt.Search.Parallelism = defaultParallelism
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	// one key per solve: "auto" is the default engine, a full cut mask
	// is the zero mask, and an untightened model emits no cut at all
	if opt.LPEngine == "auto" {
		opt.LPEngine = ""
	}
	if opt.Cuts == core.CutsAll || !opt.Tightened {
		opt.Cuts = 0
	}
	ci := &instance{
		inst:   core.Instance{Graph: g, Alloc: alloc, Device: dev},
		opt:    opt,
		record: r.Options.Record,
	}
	if err := ci.inst.Validate(); err != nil {
		return nil, err
	}
	ci.key = canonicalKey(g, alloc, dev, opt)
	ci.chain = canonicalKey(g, alloc, library.Device{}, opt)
	return ci, nil
}

// canonicalKey hashes the full instance identity — graph, exploration
// set, device parameters (N, L, Ms, C, alpha) and solver options —
// over canonical serializations, so textual variations of the same
// request (whitespace, map order) collapse to one key. opt comes from
// compile, which has already cleared the per-job hooks. The search
// worker count and gate threshold are deliberately excluded: a
// parallel solve returns the same result as a serial one, so requests
// differing only in worker count or gating deduplicate. The mode,
// branch rule and strengthening toggles stay in the key — they cannot
// change the optimum, but they can change which of several tied
// optimal assignments is reported.
func canonicalKey(g *graph.Graph, alloc *library.Allocation, dev library.Device, opt core.Options) string {
	opt.Search.Parallelism = 0
	opt.Search.Threshold = 0
	h := sha256.New()
	fmt.Fprintf(h, "graph:%s\n", g.String())
	fmt.Fprintf(h, "alloc:%s\n", alloc.String())
	fmt.Fprintf(h, "device:%s|%d|%g|%d\n", dev.Name, dev.CapacityFG, dev.Alpha, dev.ScratchMem)
	fmt.Fprintf(h, "options:%+v\n", opt)
	return hex.EncodeToString(h.Sum(nil))
}
