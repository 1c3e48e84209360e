package trace

import "sync"

// defaultRingCap bounds a Ring created with capacity <= 0.
const defaultRingCap = 512

// Ring is a fixed-capacity in-memory event sink that keeps the most
// recent events and supports cursor-based incremental reads plus a
// broadcast wakeup channel — the substrate of the service's per-job
// SSE streaming. All methods are safe for concurrent use.
//
// Events are addressed by their absolute emission index (the first
// event emitted into the ring has index 1); once the ring wraps, the
// oldest events are dropped and a lagging reader simply resumes at the
// oldest buffered one.
type Ring struct {
	mu     sync.Mutex
	buf    []Event
	total  uint64 // events ever emitted into the ring
	notify chan struct{}
	closed bool
}

// NewRing returns a ring keeping the last capacity events (<= 0 means
// 512).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = defaultRingCap
	}
	return &Ring{
		buf:    make([]Event, 0, capacity),
		notify: make(chan struct{}),
	}
}

// NewRingAt returns a ring whose absolute indexing starts after base:
// the first event emitted has index base+1. An amended job's ring is
// anchored at its parent ring's Total so SSE event ids stay monotone
// across amend generations and a Last-Event-ID resume spans the
// boundary.
func NewRingAt(capacity int, base uint64) *Ring {
	r := NewRing(capacity)
	r.total = base
	return r
}

// Emit appends e, dropping the oldest buffered event when full, and
// wakes every waiter. Events emitted after Close are discarded.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	if len(r.buf) == cap(r.buf) {
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = e
	} else {
		r.buf = append(r.buf, e)
	}
	r.total++
	close(r.notify) // broadcast; waiters re-arm via Wait
	r.notify = make(chan struct{})
	r.mu.Unlock()
}

// Since returns a copy of the buffered events with absolute index >
// after, plus the new cursor (the absolute index of the last event
// returned, or the current total when nothing new is buffered). Pass 0
// to read from the oldest buffered event.
func (r *Ring) Since(after uint64) ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.total - uint64(len(r.buf)) // absolute index of buf[0] minus 1
	if after < first {
		after = first // the reader lagged past the drop horizon
	}
	if after >= r.total {
		return nil, r.total
	}
	out := append([]Event(nil), r.buf[after-first:]...)
	return out, r.total
}

// Wait returns a channel closed on the next Emit or Close. Obtain the
// channel BEFORE draining with Since to avoid missed wakeups; a closed
// ring returns an already-closed channel.
func (r *Ring) Wait() <-chan struct{} {
	r.mu.Lock()
	ch := r.notify
	r.mu.Unlock()
	return ch
}

// Close marks the ring complete: waiters wake, later Emit calls are
// discarded, and buffered events remain readable. Close is idempotent.
func (r *Ring) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.notify)
	}
	r.mu.Unlock()
}

// Closed reports whether Close was called.
func (r *Ring) Closed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// Total returns how many events were ever emitted into the ring
// (including dropped ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
