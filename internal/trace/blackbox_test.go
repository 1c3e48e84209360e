package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
)

func TestBlackBoxWrapAndDump(t *testing.T) {
	b := NewBlackBox(4)
	for i := 1; i <= 6; i++ {
		b.Record(BBEvent{Kind: BBNode, Node: int64(i)})
	}
	d := b.Dump()
	if d.Flushed {
		t.Fatal("unflushed box reports flushed")
	}
	if d.Total != 6 {
		t.Fatalf("total = %d, want 6", d.Total)
	}
	if len(d.Events) != 4 {
		t.Fatalf("ring kept %d events, want 4", len(d.Events))
	}
	// keep-last semantics: the oldest two fell off the front, order kept
	for i, e := range d.Events {
		if e.Node != int64(i+3) {
			t.Fatalf("event %d is node %d, want %d", i, e.Node, i+3)
		}
	}
	// partial fill dumps only what was recorded
	small := NewBlackBox(8)
	small.Record(BBEvent{Kind: BBNode, Node: 1})
	if d := small.Dump(); len(d.Events) != 1 || d.Total != 1 {
		t.Fatalf("partial dump %+v", d)
	}
}

func TestBlackBoxFlushFreezesFirstWins(t *testing.T) {
	b := NewBlackBox(4)
	var hooked []BBDump
	b.SetOnFlush(func(d BBDump) { hooked = append(hooked, d) })
	b.Record(BBEvent{Kind: BBNode, Node: 1})
	b.Anomaly(BBEvent{Kind: BBPanic, Node: 1, Msg: "boom"}, "worker-panic")
	if reason, ok := b.Flushed(); !ok || reason != "worker-panic" {
		t.Fatalf("first anomaly did not flush: Flushed() = %q, %v", reason, ok)
	}
	b.Anomaly(BBEvent{Kind: BBStall, Msg: "stall"}, "stall")
	// recording continues, but the dump stays frozen at the first anomaly
	b.Record(BBEvent{Kind: BBNode, Node: 2})
	d := b.Dump()
	if !d.Flushed || d.Reason != "worker-panic" || d.Total != 4 {
		t.Fatalf("dump = %+v", d)
	}
	if len(d.Events) != 2 || d.Events[1].Kind != BBPanic || d.Events[1].Msg != "boom" {
		t.Fatalf("frozen events = %+v", d.Events)
	}
	if reason, ok := b.Flushed(); !ok || reason != "worker-panic" {
		t.Fatalf("Flushed() = %q, %v", reason, ok)
	}
	if len(hooked) != 1 || hooked[0].Reason != "worker-panic" {
		t.Fatalf("hook calls = %+v", hooked)
	}
}

// TestBlackBoxAnomalyEndsDump: node events racing an anomaly never land
// between the anomaly's event and the freeze, so the frozen dump always
// ends with the event that froze it.
func TestBlackBoxAnomalyEndsDump(t *testing.T) {
	for run := 0; run < 50; run++ {
		b := NewBlackBox(8)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 1; w <= 2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						b.Record(BBEvent{Kind: BBNode, Worker: w})
					}
				}
			}(w)
		}
		for b.Dump().Total < 16 {
			runtime.Gosched()
		}
		b.Anomaly(BBEvent{Kind: BBPanic, Msg: "boom"}, "worker-panic")
		close(stop)
		wg.Wait()
		d := b.Dump()
		if last := d.Events[len(d.Events)-1]; last.Kind != BBPanic {
			t.Fatalf("run %d: frozen dump ends with %+v, want the panic", run, last)
		}
	}
}

func TestBlackBoxSanitizesNonFinite(t *testing.T) {
	b := NewBlackBox(2)
	b.Record(BBEvent{Kind: BBNode, Obj: math.Inf(1), Bound: math.NaN(), Incumbent: math.Inf(-1)})
	e := b.Dump().Events[0]
	if e.Obj != 0 || e.Bound != 0 || e.Incumbent != 0 {
		t.Fatalf("non-finite floats survived: %+v", e)
	}
}

// TestBlackBoxOffZeroAlloc pins the off state: a nil *BlackBox absorbs
// the full recording surface for free.
func TestBlackBoxOffZeroAlloc(t *testing.T) {
	var b *BlackBox
	if a := testing.AllocsPerRun(200, func() {
		b.Record(BBEvent{Kind: BBNode, Node: 1})
		b.Anomaly(BBEvent{Kind: BBPanic}, "x")
		_, _ = b.Flushed()
		_ = b.Dump()
	}); a != 0 {
		t.Fatalf("blackbox-off path allocates %.1f per op, want 0", a)
	}
}

// TestBlackBoxSteadyStateAllocs pins the always-on cost: recording into
// a live, pre-filled ring must not touch the heap, which is what makes
// the black box safe to leave on for every node of every job.
func TestBlackBoxSteadyStateAllocs(t *testing.T) {
	b := NewBlackBox(16)
	for i := 0; i < 32; i++ { // wrap at least once first
		b.Record(BBEvent{Kind: BBNode, Node: int64(i)})
	}
	if a := testing.AllocsPerRun(200, func() {
		b.Record(BBEvent{Kind: BBNode, Node: 99, Worker: 1, Depth: 3, Bound: 1.5, Incumbent: 2})
	}); a != 0 {
		t.Fatalf("steady-state Record allocates %.1f per op, want 0", a)
	}
}
