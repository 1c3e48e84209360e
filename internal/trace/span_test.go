package trace

import (
	"strings"
	"testing"
)

func TestSpansTreeSnapshot(t *testing.T) {
	sc := NewSpans("")
	if len(sc.TraceID()) != 32 {
		t.Fatalf("trace id %q, want 32 hex digits", sc.TraceID())
	}
	root := sc.Root("request")
	solve := root.Child("solve")
	search := solve.Child("search")
	search.SetStr("mode", "steal")
	search.SetNum("nodes", 42)
	w := search.Child("worker")
	w.SetWorker(3)
	if got := sc.Open(); got != 4 {
		t.Fatalf("open = %d, want 4", got)
	}
	w.End()
	search.End()
	search.End() // idempotent
	search.SetNum("late", 1)
	solve.End()
	root.End()
	if got := sc.Open(); got != 0 {
		t.Fatalf("open after ends = %d, want 0", got)
	}

	recs := sc.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d spans, want 4", len(recs))
	}
	// end order: worker, search, solve, request
	names := []string{"worker", "search", "solve", "request"}
	for i, n := range names {
		if recs[i].Name != n {
			t.Fatalf("span %d = %q, want %q", i, recs[i].Name, n)
		}
		if recs[i].TraceID != sc.TraceID() {
			t.Fatalf("span %d trace id %q", i, recs[i].TraceID)
		}
	}
	if recs[0].Worker != 3 {
		t.Fatalf("worker span worker = %d", recs[0].Worker)
	}
	if recs[1].Num["nodes"] != 42 || recs[1].Str["mode"] != "steal" {
		t.Fatalf("search attrs = %v / %v", recs[1].Num, recs[1].Str)
	}
	if _, ok := recs[1].Num["late"]; ok {
		t.Fatal("post-End attribute was recorded")
	}
	// parent links: worker→search→solve→request, request has no parent
	if recs[0].ParentID != recs[1].SpanID || recs[1].ParentID != recs[2].SpanID ||
		recs[2].ParentID != recs[3].SpanID || recs[3].ParentID != "" {
		t.Fatalf("parent chain broken: %+v", recs)
	}
}

func TestSpansAdoptTraceparent(t *testing.T) {
	const hdr = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	sc := NewSpans(hdr)
	if sc.TraceID() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("trace id %q not adopted", sc.TraceID())
	}
	root := sc.Root("request")
	root.End()
	recs := sc.Snapshot()
	if recs[0].ParentID != "b7ad6b7169203331" {
		t.Fatalf("root parent %q, want the caller's span id", recs[0].ParentID)
	}
	// the echoed header must parse and name the adopted trace
	tp := sc.Traceparent(root)
	tid, sid, ok := ParseTraceparent(tp)
	if !ok || tid != sc.TraceID() || sid != recs[0].SpanID {
		t.Fatalf("echoed traceparent %q does not round-trip (ok=%v tid=%q sid=%q)", tp, ok, tid, sid)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(valid); !ok {
		t.Fatal("valid header rejected")
	}
	bad := []string{
		"",
		"garbage",
		valid[:54],       // truncated
		"ff" + valid[2:], // forbidden version
		"00-" + strings.Repeat("0", 32) + valid[35:],              // all-zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // all-zero span id
		strings.ToUpper(valid),                                    // uppercase hex
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // wrong separator
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("accepted malformed traceparent %q", h)
		}
	}
	// a malformed header starts a fresh trace instead of failing
	sc := NewSpans("garbage")
	if len(sc.TraceID()) != 32 {
		t.Fatalf("fresh trace id %q", sc.TraceID())
	}
}

func TestSpansSinkAndCap(t *testing.T) {
	sc := NewSpans("")
	var sunk []SpanRec
	sc.SetSink(func(r SpanRec) { sunk = append(sunk, r) })
	root := sc.Root("request")
	n := maxSpansPerTrace + 10
	for i := 0; i < n; i++ {
		root.Child("c").End()
	}
	root.End()
	if got := len(sc.Snapshot()); got != maxSpansPerTrace {
		t.Fatalf("snapshot holds %d spans, want the %d cap", got, maxSpansPerTrace)
	}
	// the sink sees every span, including the ones past the buffer cap
	if len(sunk) != n+1 {
		t.Fatalf("sink saw %d spans, want %d", len(sunk), n+1)
	}
}

// TestSpanOffZeroAlloc pins the nil-receiver contract: with spans off
// (nil *Spans / nil *Span) the entire per-node span surface costs zero
// allocations, which is what lets the solver keep the calls unguarded.
func TestSpanOffZeroAlloc(t *testing.T) {
	var sc *Spans
	var sp *Span
	if a := testing.AllocsPerRun(200, func() {
		c := sp.Child("x")
		c.SetWorker(1)
		c.SetNum("n", 1)
		c.SetStr("s", "v")
		c.End()
		_ = sc.Root("r")
		_ = sc.TraceID()
		_ = sc.Open()
	}); a != 0 {
		t.Fatalf("span-off path allocates %.1f per op, want 0", a)
	}
}
