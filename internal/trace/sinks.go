package trace

import (
	"encoding/json"
	"io"
	"sync"
)

// WriterSink encodes events as NDJSON (one JSON object per line) to an
// io.Writer — the format behind the -trace flag of tpsyn and tptables.
// Emissions are serialized by an internal mutex.
type WriterSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewWriterSink returns a sink writing NDJSON to w.
func NewWriterSink(w io.Writer) *WriterSink {
	return &WriterSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink. Encoding errors are dropped: tracing is
// telemetry and must never fail a solve.
func (s *WriterSink) Emit(e Event) {
	s.mu.Lock()
	_ = s.enc.Encode(&e)
	s.mu.Unlock()
}

// Fanout replicates events to a dynamic set of sinks. Sinks may be
// added while emissions are in flight — the solve service attaches the
// ring of a deduplicated joiner job to the flight leader's fanout, so
// the joiner streams live progress from its join point onward.
type Fanout struct {
	mu    sync.RWMutex
	sinks []Sink
}

// NewFanout returns a fanout over the given sinks.
func NewFanout(sinks ...Sink) *Fanout {
	return &Fanout{sinks: append([]Sink(nil), sinks...)}
}

// Add attaches another sink; it receives events emitted from now on.
func (f *Fanout) Add(s Sink) {
	f.mu.Lock()
	f.sinks = append(f.sinks, s)
	f.mu.Unlock()
}

// Emit implements Sink.
func (f *Fanout) Emit(e Event) {
	f.mu.RLock()
	for _, s := range f.sinks {
		s.Emit(e)
	}
	f.mu.RUnlock()
}
