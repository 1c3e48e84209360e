package trace

import (
	"sync"
	"time"
)

// BlackBox is the always-on anomaly recorder: a bounded keep-last ring
// of recent search events, the complement of the keep-first Recorder.
// Where the Recorder answers "how did the solve start", the black box
// answers "what was the solve doing when it died" — it is cheap enough
// to run on every job, and its contents only become interesting when an
// anomaly (worker panic, deadline cancellation, certification failure,
// watchdog stall) flushes it.
//
// A nil *BlackBox is the valid "off" state: Record and Anomaly on it
// are no-ops behind a single pointer compare. A live BlackBox's Record
// is zero-alloc in steady state — the ring buffer is preallocated and
// BBEvent is a flat value type — which is what lets the service keep it
// on for every node of every job (guarded by AllocsPerRun tests).
//
// Anomaly flushes the box: it freezes a copy of the ring under the
// anomaly's name. The first flush wins and later ones are ignored, so
// the dump always reflects the first anomaly observed. Recording
// continues after a flush (the frozen copy is immutable), and Dump
// serves the frozen copy once one exists, the live tail otherwise.
type BlackBox struct {
	mu      sync.Mutex
	start   time.Time
	buf     []BBEvent
	next    int // write cursor into buf (wraps)
	total   int64
	flushed bool
	reason  string
	fms     float64
	frozen  []BBEvent
	onFlush func(BBDump)
}

// DefaultBlackBoxCap is the ring capacity used when NewBlackBox is
// given a non-positive one: enough recent nodes to localize a crash,
// small enough to preallocate per job.
const DefaultBlackBoxCap = 256

// Black-box event kinds. These deliberately mirror the Kind taxonomy
// where events overlap (node, incumbent, stall, panic) and add
// ring-only kinds for flush triggers.
const (
	BBNode      = "node"
	BBIncumbent = "incumbent"
	BBPanic     = "panic"
	BBStall     = "stall"
	BBDeadline  = "deadline"
	BBCertify   = "certify"
)

// BBEvent is one black-box observation: a flat value type (no pointers)
// so recording copies it into the preallocated ring without touching
// the heap. Node events carry the global node index, the worker that
// explored it, its depth, LP objective and the branching column; the
// shared incumbent/bound are sampled alongside so the tail of a dump
// reads as a self-contained trajectory.
type BBEvent struct {
	TMS       float64 `json:"t_ms"`
	Kind      string  `json:"kind"`
	Node      int64   `json:"node,omitempty"`
	Worker    int     `json:"worker,omitempty"`
	Depth     int     `json:"depth,omitempty"`
	Col       int     `json:"col,omitempty"`
	Obj       float64 `json:"obj,omitempty"`
	Bound     float64 `json:"bound,omitempty"`
	Incumbent float64 `json:"incumbent,omitempty"`
	Msg       string  `json:"msg,omitempty"`
}

// BBDump is the retrievable form of a black box: the chronologically
// ordered events (frozen at flush time when flushed), the flush reason,
// and the total number of events ever recorded (Total − len(Events)
// were dropped from the front of the ring).
type BBDump struct {
	Flushed  bool      `json:"flushed"`
	Reason   string    `json:"reason,omitempty"`
	FlushTMS float64   `json:"flush_t_ms,omitempty"`
	Total    int64     `json:"total"`
	Events   []BBEvent `json:"events"`
}

// NewBlackBox returns a black box keeping the last capacity events
// (DefaultBlackBoxCap when capacity <= 0).
func NewBlackBox(capacity int) *BlackBox {
	if capacity <= 0 {
		capacity = DefaultBlackBoxCap
	}
	return &BlackBox{start: time.Now(), buf: make([]BBEvent, capacity)}
}

// Record stamps e with the elapsed time and appends it, overwriting the
// oldest event once the ring is full. Non-finite floats are sanitized
// (the solver's unset incumbent is +Inf). No-op on nil.
func (b *BlackBox) Record(e BBEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.recordLocked(e)
	b.mu.Unlock()
}

func (b *BlackBox) recordLocked(e BBEvent) {
	if !isFinite(e.Obj) {
		e.Obj = 0
	}
	if !isFinite(e.Bound) {
		e.Bound = 0
	}
	if !isFinite(e.Incumbent) {
		e.Incumbent = 0
	}
	e.TMS = float64(time.Since(b.start)) / float64(time.Millisecond)
	b.buf[b.next] = e
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
	}
	b.total++
}

// Anomaly records e and flushes the box under reason in one critical
// section, so a dump it freezes always ends with e: the one call every
// anomaly site makes (worker panic, deadline or cancellation, failed
// certification, watchdog stall). Only the first flush freezes the
// ring; later anomalies are recorded but leave the dump as it is. The
// OnFlush hook, when set, is invoked with the frozen dump outside the
// lock. No-op on nil.
func (b *BlackBox) Anomaly(e BBEvent, reason string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.recordLocked(e)
	if b.flushed {
		b.mu.Unlock()
		return
	}
	b.flushed = true
	b.reason = reason
	b.fms = float64(time.Since(b.start)) / float64(time.Millisecond)
	b.frozen = b.snapshotLocked()
	hook := b.onFlush
	dump := b.dumpLocked()
	b.mu.Unlock()
	if hook != nil {
		hook(dump)
	}
}

// SetOnFlush installs a hook invoked once, with the frozen dump, when
// the first anomaly lands — the path behind tpserve's -blackbox dump
// directory. No-op on nil.
func (b *BlackBox) SetOnFlush(fn func(BBDump)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.onFlush = fn
	b.mu.Unlock()
}

// Flushed returns the flush reason and whether a flush has happened.
func (b *BlackBox) Flushed() (string, bool) {
	if b == nil {
		return "", false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reason, b.flushed
}

// Dump returns the frozen dump when flushed, otherwise a snapshot of
// the live tail. The zero BBDump on nil.
func (b *BlackBox) Dump() BBDump {
	if b == nil {
		return BBDump{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dumpLocked()
}

func (b *BlackBox) dumpLocked() BBDump {
	d := BBDump{Flushed: b.flushed, Reason: b.reason, FlushTMS: b.fms, Total: b.total}
	if b.flushed {
		d.Events = b.frozen
	} else {
		d.Events = b.snapshotLocked()
	}
	return d
}

// snapshotLocked copies the ring in chronological order.
func (b *BlackBox) snapshotLocked() []BBEvent {
	if b.total <= int64(len(b.buf)) {
		out := make([]BBEvent, b.total)
		copy(out, b.buf[:b.total])
		return out
	}
	out := make([]BBEvent, 0, len(b.buf))
	out = append(out, b.buf[b.next:]...)
	out = append(out, b.buf[:b.next]...)
	return out
}
