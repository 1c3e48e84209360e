package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer // the disabled state
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled() {
			t.Fatal("unreachable")
		}
		tr.Emit(Event{Kind: KindNode, Nodes: 42, Bound: 1.5})
		tr.SetSampleEvery(8)
		_ = tr.SampleEvery()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %v per emit, want 0", allocs)
	}
}

func TestTracerStampsAndSanitizes(t *testing.T) {
	r := NewRing(8)
	tr := New(r)
	tr.Emit(Event{Kind: KindRoot, Bound: 3})
	tr.Emit(Event{Kind: KindIncumbent, HasIncumbent: true, Incumbent: math.Inf(1), Gap: math.NaN()})
	evs, _ := r.Since(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("bad sequence numbers: %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].TMS < 0 || evs[1].TMS < evs[0].TMS {
		t.Fatalf("elapsed times not monotone: %v, %v", evs[0].TMS, evs[1].TMS)
	}
	if evs[1].HasIncumbent || evs[1].Incumbent != 0 || evs[1].Gap != 0 {
		t.Fatalf("non-finite fields not sanitized: %+v", evs[1])
	}
	if _, err := json.Marshal(evs); err != nil {
		t.Fatalf("sanitized events must marshal: %v", err)
	}
}

func TestRingWrapSinceAndClose(t *testing.T) {
	r := NewRing(4)
	tr := New(r)
	for i := 0; i < 6; i++ {
		tr.Emit(Event{Kind: KindNode, Nodes: int64(i + 1)})
	}
	if got := r.Total(); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	evs, cur := r.Since(0)
	if len(evs) != 4 || evs[0].Nodes != 3 || evs[3].Nodes != 6 {
		t.Fatalf("wrapped ring returned %+v", evs)
	}
	if cur != 6 {
		t.Fatalf("cursor = %d, want 6", cur)
	}
	if more, cur2 := r.Since(cur); len(more) != 0 || cur2 != 6 {
		t.Fatalf("drained ring returned %d events, cursor %d", len(more), cur2)
	}

	// incremental read picks up exactly the new events
	wait := r.Wait()
	tr.Emit(Event{Kind: KindNode, Nodes: 7})
	select {
	case <-wait:
	default:
		t.Fatal("Wait channel not signalled by Emit")
	}
	evs, cur = r.Since(cur)
	if len(evs) != 1 || evs[0].Nodes != 7 || cur != 7 {
		t.Fatalf("incremental read got %+v (cursor %d)", evs, cur)
	}

	r.Close()
	if !r.Closed() {
		t.Fatal("ring not closed")
	}
	select {
	case <-r.Wait():
	default:
		t.Fatal("Wait on a closed ring must be ready")
	}
	tr.Emit(Event{Kind: KindNode, Nodes: 8}) // dropped
	if got := r.Total(); got != 7 {
		t.Fatalf("emit after close changed total to %d", got)
	}
	r.Close() // idempotent
}

// TestRingAtAnchorsIndexing: an amend-generation ring anchored at the
// parent's total continues the absolute index sequence, so a reader's
// cursor from the parent ring resumes cleanly on the child.
func TestRingAtAnchorsIndexing(t *testing.T) {
	parent := NewRing(4)
	for i := 0; i < 3; i++ {
		parent.Emit(Event{Kind: KindNode, Nodes: int64(i + 1)})
	}
	child := NewRingAt(4, parent.Total())
	if got := child.Total(); got != 3 {
		t.Fatalf("anchored ring total = %d, want 3", got)
	}
	if evs, cur := child.Since(0); len(evs) != 0 || cur != 3 {
		t.Fatalf("empty anchored ring returned %d events, cursor %d", len(evs), cur)
	}
	child.Emit(Event{Kind: KindNode, Nodes: 4})
	child.Emit(Event{Kind: KindNode, Nodes: 5})
	// a reader that stopped at parent index 3 resumes with the child's
	// first event and monotone indices
	evs, cur := child.Since(3)
	if len(evs) != 2 || evs[0].Nodes != 4 || cur != 5 {
		t.Fatalf("resume across the amend boundary got %+v (cursor %d)", evs, cur)
	}
	if evs, _ := child.Since(4); len(evs) != 1 || evs[0].Nodes != 5 {
		t.Fatalf("mid-child resume got %+v", evs)
	}
}

func TestWriterSinkNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewWriterSink(&buf))
	tr.Emit(Event{Kind: KindModel, Vars: 10, Rows: 20, NNZ: 30,
		Families: []Family{{Name: "uniq", Rows: 4, NNZ: 12}}})
	tr.Emit(Event{Kind: KindStatus, Status: "optimal", Nodes: 5})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d NDJSON lines, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line 0 is not JSON: %v", err)
	}
	if e.Kind != KindModel || len(e.Families) != 1 || e.Families[0].Name != "uniq" {
		t.Fatalf("round-tripped model event = %+v", e)
	}
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatalf("line 1 is not JSON: %v", err)
	}
	if e.Kind != KindStatus || e.Status != "optimal" {
		t.Fatalf("round-tripped status event = %+v", e)
	}
}

func TestFanoutAddDuringEmit(t *testing.T) {
	a, b := NewRing(16), NewRing(16)
	f := NewFanout(a)
	tr := New(f)
	tr.Emit(Event{Kind: KindRoot})
	f.Add(b) // late joiner sees only later events
	tr.Emit(Event{Kind: KindStatus, Status: "optimal"})
	if got := a.Total(); got != 2 {
		t.Fatalf("primary sink got %d events, want 2", got)
	}
	if got := b.Total(); got != 1 {
		t.Fatalf("late sink got %d events, want 1", got)
	}
	if evs, _ := b.Since(0); evs[0].Kind != KindStatus {
		t.Fatalf("late sink first event = %+v", evs[0])
	}
}

func TestRingConcurrentEmitRead(t *testing.T) {
	r := NewRing(64)
	tr := New(r)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Event{Kind: KindNode, Nodes: int64(i)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cur uint64
		var seen int
		for seen < 64 { // read until the buffer definitely wrapped once
			wait := r.Wait()
			evs, next := r.Since(cur)
			cur = next
			seen += len(evs)
			if len(evs) == 0 {
				<-wait
			}
		}
	}()
	wg.Wait()
	r.Close()
	<-done
	if got := r.Total(); got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
}
