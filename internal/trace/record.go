package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/exact"
)

// recordVersion is the codec version stamped into the header line.
// Decoders accept only versions they know.
const recordVersion = 1

// DefaultRecordLimit bounds the nodes kept by a Recorder when the
// caller passes no limit of its own. The recorder keeps the FIRST limit
// nodes — the lineage prefix rooted at the search root — and counts the
// rest as dropped, so a bounded recording is always a connected tree.
const DefaultRecordLimit = 1 << 16

// NodeRec is one recorded branch-and-bound node: the full search
// lineage (id/parent/branching edge), the LP outcome and bounds at the
// node, and the cost of solving it. IDs are the solver's global
// explored-node counter (1-based, the root is 1), so they are unique
// across parallel workers; under a parallel solve a subproblem handed
// to a worker is re-solved at pickup and appears as a child of its
// split-time node.
type NodeRec struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	Worker int32 `json:"worker,omitempty"`
	Depth  int32 `json:"depth,omitempty"`
	// Col and Dir describe the branching edge from Parent: the fixed
	// column and the value (0 or 1) it was fixed to. Col is -1 at the
	// root and at parallel pickup re-entries with an empty fix prefix.
	Col int32 `json:"col"`
	Dir int8  `json:"dir,omitempty"`
	// LP is the node's LP status string (lp.Status.String()).
	LP string `json:"lp,omitempty"`
	// Obj is the node's LP objective, valid when HasObj (optimal LP).
	Obj    float64 `json:"obj,omitempty"`
	HasObj bool    `json:"has_obj,omitempty"`
	// Best is the global proved bound and Inc the incumbent objective
	// observed at node entry (HasInc reports whether one existed).
	Best   float64 `json:"best,omitempty"`
	Inc    float64 `json:"inc,omitempty"`
	HasInc bool    `json:"has_inc,omitempty"`
	// Pivots and NS are the simplex pivots and wall nanoseconds spent
	// solving this node's LP relaxation.
	Pivots int64 `json:"pivots,omitempty"`
	NS     int64 `json:"ns,omitempty"`
	// TMS is the time since recording started, in milliseconds.
	TMS float64 `json:"t_ms,omitempty"`
}

// IncRec marks an incumbent install: the node that produced it, the
// objective and the time since recording started.
type IncRec struct {
	Node int64   `json:"node"`
	Obj  float64 `json:"obj"`
	TMS  float64 `json:"t_ms,omitempty"`
}

// LPStat is the LP-engine summary stamped into a recording footer (and
// embedded in the terminal status Event): the factorization/solve
// counters that let replay analysis derive fill-in (FactorNNZ /
// BasisNNZ) and the realized refactorization interval (pivots /
// Factorizations) offline. Mirrors lp.Counters without importing it
// (lp depends on trace, not the reverse). Engine is set only by
// recordings from builds that could run a dense-tableau engine ("dense"
// or "revised"); it is kept so those recordings still decode and
// re-encode unchanged.
type LPStat struct {
	Engine         string `json:"engine,omitempty"`
	Factorizations int64  `json:"factorizations,omitempty"`
	FTRANs         int64  `json:"ftrans,omitempty"`
	BTRANs         int64  `json:"btrans,omitempty"`
	EtaNNZ         int64  `json:"eta_nnz,omitempty"`
	BasisNNZ       int64  `json:"basis_nnz,omitempty"`
	FactorNNZ      int64  `json:"factor_nnz,omitempty"`
}

// CutRec records one root-strengthening cutting plane appended to the
// model before the tree search: its family name, sparse coefficients
// and range, so a recording fully describes the cut-augmented model a
// replayed search ran on. Nil Lo/Hi stand for -Inf/+Inf (JSON cannot
// carry non-finite numbers).
type CutRec struct {
	Name string    `json:"name"`
	Idx  []int     `json:"idx,omitempty"`
	Val  []float64 `json:"val,omitempty"`
	Lo   *float64  `json:"lo,omitempty"`
	Hi   *float64  `json:"hi,omitempty"`
	TMS  float64   `json:"t_ms,omitempty"`
}

// AmendRec is the amend-lineage stamp of a recording: which job (by
// id) this solve amended, the amend generation (1 for the first amend
// of a cold job), and the delta classification/path the engine
// dispatched it down.
type AmendRec struct {
	Of         string `json:"of"`
	Generation int    `json:"gen"`
	Class      string `json:"class,omitempty"`
	Path       string `json:"path,omitempty"`
}

// Recorder is the search-tree flight recorder: a bounded, in-memory
// collector of NodeRec lineage and incumbent marks that snapshots into
// a Recording. A nil *Recorder is the valid "off" state — every method
// has a nil-receiver guard and the disabled path performs no allocation
// (guarded by testing.AllocsPerRun in this package's tests) — so the
// branch-and-bound hot loop gates on a single pointer compare exactly
// like the Tracer.
//
// A Recorder is safe for concurrent use by parallel workers; recording
// serializes on one mutex, which is acceptable because recording is an
// explicitly-requested diagnostic mode, never the default path.
type Recorder struct {
	mu      sync.Mutex
	start   time.Time
	label   string
	limit   int
	nodes   []NodeRec
	incs    []IncRec
	cuts    []CutRec
	dropped int64
	prof    *Profile

	// terminal state, set once by Finalize
	status string
	wallNS int64
	total  int64
	pivots int64
	cert   *exact.Certificate
	amend  *AmendRec
	lpstat *LPStat

	// search-scheduler stats, set once by SetSearchStats
	mode          string
	steals        int64
	firstIncNodes int64
	firstIncNS    int64
}

// NewRecorder returns a recorder keeping at most limit nodes;
// limit <= 0 means DefaultRecordLimit.
func NewRecorder(limit int) *Recorder {
	if limit <= 0 {
		limit = DefaultRecordLimit
	}
	return &Recorder{start: time.Now(), limit: limit}
}

// SetLabel names the recording (graph name, job id). No-op on nil.
func (r *Recorder) SetLabel(s string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.label = s
	r.mu.Unlock()
}

// SetProfile attaches the phase profile whose snapshot lands in the
// recording's footer. No-op on nil.
func (r *Recorder) SetProfile(p *Profile) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.prof = p
	r.mu.Unlock()
}

// Node records one explored node, stamping its TMS. Past the node
// limit the record is counted as dropped instead — keeping the first
// nodes preserves the lineage prefix around the root, which is what
// replay analysis needs. No-op on a nil recorder.
func (r *Recorder) Node(n NodeRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.nodes) >= r.limit {
		r.dropped++
		r.mu.Unlock()
		return
	}
	n.TMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	r.nodes = append(r.nodes, n)
	r.mu.Unlock()
}

// Incumbent marks an incumbent install produced by node. Incumbent
// marks are never dropped: they are rare and carry the convergence
// story. No-op on a nil recorder.
func (r *Recorder) Incumbent(node int64, obj float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.incs = append(r.incs, IncRec{
		Node: node, Obj: obj,
		TMS: float64(time.Since(r.start)) / float64(time.Millisecond),
	})
	r.mu.Unlock()
}

// Cut records one root-strengthening cut, stamping its TMS. Cut marks
// are never dropped: there are at most a few dozen per solve and they
// define the model the recorded search explored. No-op on nil.
func (r *Recorder) Cut(c CutRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	c.TMS = float64(time.Since(r.start)) / float64(time.Millisecond)
	r.cuts = append(r.cuts, c)
	r.mu.Unlock()
}

// SetSearchStats stamps the search-scheduler summary onto the footer:
// the scheduler mode that ran (serial or steal), the number of
// subproblem steals, and when the first incumbent landed (global node
// count and nanoseconds since the solve started; zero when no incumbent
// was found). No-op on nil.
func (r *Recorder) SetSearchStats(mode string, steals, firstIncNodes, firstIncNS int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.mode = mode
	r.steals = steals
	r.firstIncNodes = firstIncNodes
	r.firstIncNS = firstIncNS
	r.mu.Unlock()
}

// Finalize stamps the terminal solve outcome: status string, wall
// time, total explored nodes (which may exceed the recorded count when
// the limit dropped some) and total LP pivots. No-op on nil.
func (r *Recorder) Finalize(status string, wall time.Duration, nodes, pivots int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.status = status
	r.wallNS = int64(wall)
	r.total = nodes
	r.pivots = pivots
	r.mu.Unlock()
}

// SetLPStat stamps the LP-engine summary onto the recording footer.
// No-op on nil.
func (r *Recorder) SetLPStat(s LPStat) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lpstat = &s
	r.mu.Unlock()
}

// SetCertificate attaches the exact certificate of the solve's verdict
// so the recording is self-certifying: tpreplay -certify re-runs the
// checks offline from the recording alone. No-op on nil.
func (r *Recorder) SetCertificate(c *exact.Certificate) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cert = c
	r.mu.Unlock()
}

// SetAmend stamps the amend lineage onto the recording, so a replayed
// flight recording of an amended solve names its base job and the
// delta path that produced it. No-op on nil.
func (r *Recorder) SetAmend(a *AmendRec) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.amend = a
	r.mu.Unlock()
}

// Snapshot copies the current state into an immutable Recording. Safe
// to call while the solve is still running (a partial recording) and
// returns nil on a nil recorder.
func (r *Recorder) Snapshot() *Recording {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := &Recording{
		Label:         r.label,
		Nodes:         append([]NodeRec(nil), r.nodes...),
		Incumbents:    append([]IncRec(nil), r.incs...),
		Cuts:          append([]CutRec(nil), r.cuts...),
		Dropped:       r.dropped,
		Status:        r.status,
		WallNS:        r.wallNS,
		TotalNodes:    r.total,
		Pivots:        r.pivots,
		Phases:        r.prof.Snapshot(),
		Certificate:   r.cert,
		Amend:         r.amend,
		LP:            r.lpstat,
		Mode:          r.mode,
		Steals:        r.steals,
		FirstIncNodes: r.firstIncNodes,
		FirstIncNS:    r.firstIncNS,
	}
	return rec
}

// Recording is an immutable search-tree recording: the decoded (or
// snapshotted) form of the NDJSON codec. It is what cmd/tpreplay and
// internal/viz consume.
type Recording struct {
	Label      string
	Nodes      []NodeRec
	Incumbents []IncRec
	// Dropped counts nodes beyond the recorder's limit (explored but
	// not recorded); TotalNodes and Pivots are the solve-wide totals
	// from the footer.
	Dropped    int64
	Status     string
	WallNS     int64
	TotalNodes int64
	Pivots     int64
	Phases     []PhaseStat
	// Certificate is the exact-arithmetic certificate of the recorded
	// solve's verdict, when the solve ran in certify mode. All numbers
	// inside are rational strings, so the recording stays re-checkable
	// offline without the original model.
	Certificate *exact.Certificate
	// Amend is the amend lineage when the recorded solve was dispatched
	// through /v1/jobs/{id}/amend; nil for a cold job.
	Amend *AmendRec
	// LP is the LP-engine summary of the recorded solve (engine name,
	// factorization/solve counters); nil on recordings made before the
	// field existed.
	LP *LPStat
	// Cuts lists the root-strengthening cutting planes appended before
	// the recorded search; empty when strengthening was off.
	Cuts []CutRec
	// Search-scheduler stats (additive footer fields, zero on old
	// recordings): the mode that ran, subproblem steals, and the global
	// node count / nanoseconds at the first incumbent install.
	Mode          string
	Steals        int64
	FirstIncNodes int64
	FirstIncNS    int64
}

// recLine is one NDJSON line of the codec: a kind tag plus exactly one
// payload. Header carries the version and label, node/inc stream the
// search, footer carries the terminal summary and phase histograms. A
// recording is: one hdr, any number of node/inc lines, one ftr.
type recLine struct {
	RK string     `json:"rk"`
	H  *recHdr    `json:"h,omitempty"`
	N  *NodeRec   `json:"n,omitempty"`
	I  *IncRec    `json:"i,omitempty"`
	F  *recFooter `json:"f,omitempty"`
	// C carries the exact certificate ("cert" lines). An additive kind:
	// old decoders skip unknown rk values, so the codec version stays 1.
	C *exact.Certificate `json:"c,omitempty"`
	// A carries the amend lineage ("amend" lines) — additive like C.
	A *AmendRec `json:"a,omitempty"`
	// X carries a root-strengthening cut ("cut" lines) — additive like C.
	X *CutRec `json:"x,omitempty"`
}

type recHdr struct {
	V     int    `json:"v"`
	Label string `json:"label,omitempty"`
}

type recFooter struct {
	Status  string      `json:"status,omitempty"`
	WallNS  int64       `json:"wall_ns,omitempty"`
	Nodes   int64       `json:"nodes,omitempty"`
	Pivots  int64       `json:"pivots,omitempty"`
	Dropped int64       `json:"dropped,omitempty"`
	Phases  []PhaseStat `json:"phases,omitempty"`
	// LP is additive: absent on old recordings, skipped by old decoders.
	LP *LPStat `json:"lp,omitempty"`
	// Search-scheduler stats, additive like LP.
	Mode          string `json:"mode,omitempty"`
	Steals        int64  `json:"steals,omitempty"`
	Cuts          int    `json:"cuts,omitempty"`
	FirstIncNodes int64  `json:"first_inc_nodes,omitempty"`
	FirstIncNS    int64  `json:"first_inc_ns,omitempty"`
}

// Encode writes the recording as NDJSON, gzip-compressed when compress
// is set. The plain form is line-oriented JSON for ad-hoc tooling; the
// compressed form is the compact interchange format (DecodeRecording
// auto-detects which one it is reading).
func (rec *Recording) Encode(w io.Writer, compress bool) error {
	if compress {
		zw := gzip.NewWriter(w)
		if err := rec.encodePlain(zw); err != nil {
			zw.Close()
			return err
		}
		return zw.Close()
	}
	return rec.encodePlain(w)
}

func (rec *Recording) encodePlain(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	line := recLine{RK: "hdr", H: &recHdr{V: recordVersion, Label: rec.Label}}
	if err := enc.Encode(line); err != nil {
		return err
	}
	for i := range rec.Nodes {
		if err := enc.Encode(recLine{RK: "node", N: &rec.Nodes[i]}); err != nil {
			return err
		}
	}
	for i := range rec.Incumbents {
		if err := enc.Encode(recLine{RK: "inc", I: &rec.Incumbents[i]}); err != nil {
			return err
		}
	}
	for i := range rec.Cuts {
		if err := enc.Encode(recLine{RK: "cut", X: &rec.Cuts[i]}); err != nil {
			return err
		}
	}
	if rec.Certificate != nil {
		if err := enc.Encode(recLine{RK: "cert", C: rec.Certificate}); err != nil {
			return err
		}
	}
	if rec.Amend != nil {
		if err := enc.Encode(recLine{RK: "amend", A: rec.Amend}); err != nil {
			return err
		}
	}
	f := &recFooter{
		Status: rec.Status, WallNS: rec.WallNS, Nodes: rec.TotalNodes,
		Pivots: rec.Pivots, Dropped: rec.Dropped, Phases: rec.Phases,
		LP: rec.LP, Mode: rec.Mode, Steals: rec.Steals, Cuts: len(rec.Cuts),
		FirstIncNodes: rec.FirstIncNodes, FirstIncNS: rec.FirstIncNS,
	}
	if err := enc.Encode(recLine{RK: "ftr", F: f}); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodeRecording reads a recording written by Encode, auto-detecting
// gzip compression from the stream's magic bytes. A missing footer
// (e.g. a truncated capture of a crashed solve) is tolerated: the nodes
// read so far are returned with zero terminal fields.
func DecodeRecording(r io.Reader) (*Recording, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, zerr := gzip.NewReader(br)
		if zerr != nil {
			return nil, fmt.Errorf("trace: opening gzip recording: %w", zerr)
		}
		defer zr.Close()
		return decodePlain(zr)
	}
	return decodePlain(br)
}

func decodePlain(r io.Reader) (*Recording, error) {
	dec := json.NewDecoder(r)
	rec := &Recording{}
	sawHdr := false
	for {
		var line recLine
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: decoding recording: %w", err)
		}
		switch line.RK {
		case "hdr":
			if line.H == nil {
				return nil, fmt.Errorf("trace: recording header without payload")
			}
			if line.H.V != recordVersion {
				return nil, fmt.Errorf("trace: unsupported recording version %d (want %d)", line.H.V, recordVersion)
			}
			rec.Label = line.H.Label
			sawHdr = true
		case "node":
			if line.N != nil {
				rec.Nodes = append(rec.Nodes, *line.N)
			}
		case "inc":
			if line.I != nil {
				rec.Incumbents = append(rec.Incumbents, *line.I)
			}
		case "cert":
			rec.Certificate = line.C
		case "amend":
			rec.Amend = line.A
		case "cut":
			if line.X != nil {
				rec.Cuts = append(rec.Cuts, *line.X)
			}
		case "ftr":
			if line.F != nil {
				rec.Status = line.F.Status
				rec.WallNS = line.F.WallNS
				rec.TotalNodes = line.F.Nodes
				rec.Pivots = line.F.Pivots
				rec.Dropped = line.F.Dropped
				rec.Phases = line.F.Phases
				rec.LP = line.F.LP
				rec.Mode = line.F.Mode
				rec.Steals = line.F.Steals
				rec.FirstIncNodes = line.F.FirstIncNodes
				rec.FirstIncNS = line.F.FirstIncNS
			}
		default:
			// unknown line kinds are skipped so minor-version additions
			// stay readable by old decoders
		}
	}
	if !sawHdr {
		return nil, fmt.Errorf("trace: not a recording (no header line)")
	}
	return rec, nil
}
