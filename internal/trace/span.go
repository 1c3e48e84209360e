package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Spans collects the hierarchical span tree of one request: a root span
// per job with children for the coarse solve stages (build, presolve,
// root-lp, cuts, dive, search, certify) and per-worker grandchildren
// under search. Spans follow the package's nil-receiver contract: a nil
// *Spans is the valid "off" state — Root returns a nil *Span, and every
// *Span method no-ops on nil — so disabled span plumbing costs a single
// pointer compare and zero allocations (guarded by AllocsPerRun tests).
//
// Span identity is W3C Trace Context compatible: a 32-hex-digit trace
// id shared by the whole tree and a 16-hex-digit span id per span. When
// a request arrives with a `traceparent` header the incoming trace id
// is adopted and the incoming span id becomes the root span's parent,
// so tpserve joins an existing distributed trace; otherwise fresh
// random ids are generated.
type Spans struct {
	mu      sync.Mutex
	start   time.Time
	traceID string
	parent  string // incoming parent span id, "" when not propagated
	done    []SpanRec
	dropped int64
	sink    func(SpanRec)
}

// maxSpansPerTrace bounds the finished-span buffer of one trace; spans
// past the cap are counted as dropped rather than buffered. Real trees
// are tens of spans (stages + one per worker), so the cap only guards
// against a pathological caller.
const maxSpansPerTrace = 1024

// SpanRec is the immutable record of a finished span — the JSON-stable
// form served by /v1/jobs/{id}/spans and written to NDJSON span sinks.
// StartMS is relative to the trace's creation; attributes are split
// into numeric and string maps so the encoding stays flat.
type SpanRec struct {
	TraceID  string             `json:"trace_id"`
	SpanID   string             `json:"span_id"`
	ParentID string             `json:"parent_id,omitempty"`
	Name     string             `json:"name"`
	StartMS  float64            `json:"start_ms"`
	DurMS    float64            `json:"dur_ms"`
	Worker   int                `json:"worker,omitempty"`
	Num      map[string]float64 `json:"num,omitempty"`
	Str      map[string]string  `json:"str,omitempty"`
}

// NewSpans returns a span collector for one request. traceparent is the
// raw W3C header value ("" when absent); a parseable header joins the
// incoming trace, anything else starts a fresh one.
func NewSpans(traceparent string) *Spans {
	sc := &Spans{start: time.Now()}
	if tid, pid, ok := ParseTraceparent(traceparent); ok {
		sc.traceID, sc.parent = tid, pid
	} else {
		sc.traceID = randHex(16)
	}
	return sc
}

// TraceID returns the 32-hex-digit trace id ("" on nil).
func (sc *Spans) TraceID() string {
	if sc == nil {
		return ""
	}
	return sc.traceID
}

// SetSink installs a callback invoked with every finished span (e.g. an
// NDJSON writer). Must be set before spans end; no-op on nil.
func (sc *Spans) SetSink(fn func(SpanRec)) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.sink = fn
	sc.mu.Unlock()
}

// Root starts the root span of the trace. Returns nil on a nil
// collector, which downstream Child/Set*/End calls tolerate.
func (sc *Spans) Root(name string) *Span {
	if sc == nil {
		return nil
	}
	return &Span{sc: sc, id: randHex(8), parent: sc.parent, name: name, start: time.Now()}
}

// Traceparent renders the W3C header value identifying sp as the
// current span — the value to echo on HTTP responses so downstream
// callers can parent onto the server-side trace. "" when either side
// is nil.
func (sc *Spans) Traceparent(sp *Span) string {
	if sc == nil || sp == nil {
		return ""
	}
	return "00-" + sc.traceID + "-" + sp.id + "-01"
}

// Snapshot returns a copy of the finished spans in end order (nil on a
// nil collector). Open spans are not included — a live job's snapshot
// grows as stages finish.
func (sc *Spans) Snapshot() []SpanRec {
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	out := make([]SpanRec, len(sc.done))
	copy(out, sc.done)
	sc.mu.Unlock()
	return out
}

func (sc *Spans) finish(rec SpanRec) {
	sc.mu.Lock()
	if len(sc.done) < maxSpansPerTrace {
		sc.done = append(sc.done, rec)
	} else {
		sc.dropped++
	}
	sink := sc.sink
	sc.mu.Unlock()
	if sink != nil {
		sink(rec)
	}
}

// Span is one timed region of a trace. All methods are safe on a nil
// receiver (the "off" state) and safe for concurrent use on a live one;
// a span must End exactly once — later Ends and post-End mutation are
// dropped.
type Span struct {
	sc     *Spans
	id     string
	parent string
	name   string
	start  time.Time
	worker int

	mu    sync.Mutex
	num   map[string]float64
	str   map[string]string
	ended bool
}

// Child starts a sub-span of s. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{sc: s.sc, id: randHex(8), parent: s.id, name: name, start: time.Now()}
}

// SetWorker tags the span with a 1-based parallel worker id.
func (s *Span) SetWorker(w int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.worker = w
	s.mu.Unlock()
}

// SetNum sets a numeric attribute. Non-finite values are dropped (the
// JSON encoder cannot carry them); no-op on nil.
func (s *Span) SetNum(key string, v float64) {
	if s == nil || !isFinite(v) {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.num == nil {
			s.num = make(map[string]float64, 8)
		}
		s.num[key] = v
	}
	s.mu.Unlock()
}

// SetStr sets a string attribute; no-op on nil or empty value.
func (s *Span) SetStr(key, v string) {
	if s == nil || v == "" {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.str == nil {
			s.str = make(map[string]string, 4)
		}
		s.str[key] = v
	}
	s.mu.Unlock()
}

// End finishes the span, recording it with its parent collector. Only
// the first End takes effect; nil receivers no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRec{
		TraceID:  s.sc.traceID,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		StartMS:  float64(s.start.Sub(s.sc.start)) / float64(time.Millisecond),
		DurMS:    float64(end.Sub(s.start)) / float64(time.Millisecond),
		Worker:   s.worker,
		Num:      s.num,
		Str:      s.str,
	}
	s.mu.Unlock()
	s.sc.finish(rec)
}

// ParseTraceparent parses a W3C traceparent header value
// (version-traceid-spanid-flags, all lowercase hex). ok is false for
// malformed values, the forbidden version ff, and all-zero ids.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	ver, tid, sid, flags := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isHex(ver) || !isHex(tid) || !isHex(sid) || !isHex(flags) {
		return "", "", false
	}
	if ver == "ff" || allZero(tid) || allZero(sid) {
		return "", "", false
	}
	return tid, sid, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// randSeq de-correlates ids if crypto/rand ever fails (it does not on
// supported platforms); ids must merely be unique, not unpredictable.
var randSeq atomic.Uint64

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[:8:8], randSeq.Add(1)|1<<63)
	}
	// Guard against the all-zero id the W3C spec forbids.
	b[n-1] |= 1
	return hex.EncodeToString(b)
}
