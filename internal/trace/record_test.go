package trace

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDisabledRecorderZeroAlloc pins the "disabled means free" contract
// of the flight recorder: a nil *Recorder (and a nil *Profile) must not
// allocate on any hot-path method, mirroring the tracer's guarantee.
func TestDisabledRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	var p *Profile
	n := NodeRec{ID: 1, Col: -1}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Node(n)
		r.Incumbent(1, 2.0)
		r.Finalize("optimal", time.Second, 1, 1)
		p.Observe(PhaseNodeLP, 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %.1f times per run, want 0", allocs)
	}
}

func testRecording() *Recording {
	return &Recording{
		Label: "fir16/N2L2",
		Nodes: []NodeRec{
			{ID: 1, Col: -1, LP: "optimal", Obj: 12.5, HasObj: true, Best: 12.5, Pivots: 40, NS: 1000, TMS: 0.5},
			{ID: 2, Parent: 1, Depth: 1, Col: 7, Dir: 1, LP: "optimal", Obj: 13, HasObj: true, Best: 12.5, Pivots: 3, NS: 200, TMS: 0.7},
			{ID: 3, Parent: 2, Depth: 2, Col: 9, LP: "infeasible", Best: 13, Inc: 14, HasInc: true, Pivots: 5, NS: 300, TMS: 0.9, Worker: 2},
		},
		Incumbents: []IncRec{{Node: 2, Obj: 14, TMS: 0.8}},
		Dropped:    2,
		Status:     "optimal",
		WallNS:     5_000_000,
		TotalNodes: 5,
		Pivots:     48,
		Phases: []PhaseStat{
			{Name: "node-lp", Count: 3, SumNS: 1500, Buckets: []HistBucket{{Pow: 8, N: 1}, {Pow: 10, N: 2}}},
			{Name: "pricing", Count: 48, SumNS: 700, Buckets: []HistBucket{{Pow: 4, N: 48}}},
		},
		Amend: &AmendRec{Of: "job-1", Generation: 2, Class: "bounds", Path: "warm"},
	}
}

// TestRecordingCodecRoundTrip drives both codec forms end to end: a
// recording must survive encode→decode bit-for-bit, plain and gzipped,
// and the decoder must auto-detect compression from the magic bytes.
func TestRecordingCodecRoundTrip(t *testing.T) {
	want := testRecording()
	for _, compress := range []bool{false, true} {
		var buf bytes.Buffer
		if err := want.Encode(&buf, compress); err != nil {
			t.Fatalf("encode(compress=%v): %v", compress, err)
		}
		if compress {
			if b := buf.Bytes(); len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
				t.Fatalf("compressed recording lacks gzip magic: % x", b[:2])
			}
		}
		got, err := DecodeRecording(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode(compress=%v): %v", compress, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip (compress=%v):\n got %+v\nwant %+v", compress, got, want)
		}
	}
}

// TestDecodeRejectsGarbage: the decoder must fail cleanly on
// non-recording input rather than return an empty recording.
func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeRecording(bytes.NewReader([]byte("{\"rk\":\"node\"}\n"))); err == nil {
		t.Fatal("decoding a headerless stream succeeded")
	}
	if _, err := DecodeRecording(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

// TestRecorderBounded: past the node limit the recorder keeps the first
// records (the lineage prefix) and counts the rest as dropped, and the
// snapshot reports both.
func TestRecorderBounded(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Node(NodeRec{ID: int64(i), Col: -1})
	}
	r.Incumbent(3, 7)
	r.Finalize("optimal", 123*time.Millisecond, 10, 99)
	rec := r.Snapshot()
	if len(rec.Nodes) != 4 {
		t.Fatalf("kept %d nodes, want 4", len(rec.Nodes))
	}
	for i, n := range rec.Nodes {
		if n.ID != int64(i+1) {
			t.Fatalf("node %d has ID %d, want the FIRST nodes kept", i, n.ID)
		}
	}
	if rec.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped)
	}
	if rec.TotalNodes != 10 || rec.Pivots != 99 || rec.Status != "optimal" {
		t.Fatalf("footer mismatch: %+v", rec)
	}
	if len(rec.Incumbents) != 1 || rec.Incumbents[0].Node != 3 {
		t.Fatalf("incumbent marks: %+v", rec.Incumbents)
	}
}

// TestRecorderSnapshotWhileRunning: a snapshot taken before Finalize is
// a valid partial recording and must not alias the recorder's state.
func TestRecorderSnapshotWhileRunning(t *testing.T) {
	r := NewRecorder(0)
	r.Node(NodeRec{ID: 1, Col: -1})
	rec := r.Snapshot()
	if rec.Status != "" || len(rec.Nodes) != 1 {
		t.Fatalf("partial snapshot: %+v", rec)
	}
	r.Node(NodeRec{ID: 2, Parent: 1})
	if len(rec.Nodes) != 1 {
		t.Fatal("snapshot aliases the recorder's node slice")
	}
}

// TestHistBuckets checks the log-2 bucketing edges.
func TestHistBuckets(t *testing.T) {
	var h Hist
	h.Observe(0)             // pow 0
	h.Observe(1)             // pow 1
	h.Observe(2)             // pow 2
	h.Observe(3)             // pow 2
	h.Observe(4)             // pow 3
	h.Observe(-5)            // clamped to 0 → pow 0
	h.Observe(math.MaxInt64) // clamped into the last bucket
	want := map[int]int64{0: 2, 1: 1, 2: 2, 3: 1, histBuckets - 1: 1}
	for _, b := range h.Buckets() {
		if want[b.Pow] != b.N {
			t.Fatalf("bucket pow=%d has %d, want %d", b.Pow, b.N, want[b.Pow])
		}
		delete(want, b.Pow)
	}
	if len(want) != 0 {
		t.Fatalf("missing buckets: %v", want)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

// TestHistConcurrentObserveMerge exercises the lock-free histogram the
// way parallel branch-and-bound workers do — concurrent Observe on
// per-worker profiles racing with Merge into a shared aggregate — and
// verifies no observation is lost. Run with -race.
func TestHistConcurrentObserveMerge(t *testing.T) {
	const workers, perWorker = 8, 2000
	var agg Profile
	profs := make([]*Profile, workers)
	for i := range profs {
		profs[i] = NewProfile()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(p *Profile, w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				p.Observe(PhasePricing, int64(w*1000+i))
				p.Observe(PhaseNodeLP, int64(i))
			}
		}(profs[w], w)
	}
	// merge concurrently with the observers: snapshots in flight may be
	// partial but the final merge below must account for everything
	var mwg sync.WaitGroup
	mwg.Add(1)
	go func() {
		defer mwg.Done()
		for i := 0; i < 50; i++ {
			_ = agg.Snapshot()
		}
	}()
	wg.Wait()
	mwg.Wait()
	for _, p := range profs {
		agg.Merge(p)
	}
	if n := agg.Hist(PhasePricing).Count(); n != workers*perWorker {
		t.Fatalf("pricing count = %d, want %d", n, workers*perWorker)
	}
	if n := agg.Hist(PhaseNodeLP).Count(); n != workers*perWorker {
		t.Fatalf("node-lp count = %d, want %d", n, workers*perWorker)
	}
	var buckets int64
	for _, b := range agg.Hist(PhasePricing).Buckets() {
		buckets += b.N
	}
	if buckets != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", buckets, workers*perWorker)
	}
}

// TestPhaseTaxonomy pins the phase names (they are codec-stable: they
// appear in recordings and Prometheus labels) and the two-level split.
func TestPhaseTaxonomy(t *testing.T) {
	wantNode := []Phase{PhaseNodeLP, PhaseProbe, PhaseComplete, PhaseBranchSelect, PhaseVerify}
	wantLP := []Phase{PhasePricing, PhaseRatio, PhaseUpdate, PhaseRefactorize, PhaseFarkas}
	for _, p := range wantNode {
		if !p.NodeLevel() {
			t.Errorf("%v should be node-level", p)
		}
	}
	for _, p := range wantLP {
		if p.NodeLevel() {
			t.Errorf("%v should be LP-internal", p)
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		if p.String() == "unknown" || p.String() == "" {
			t.Errorf("phase %d has no name", p)
		}
		back, ok := ParsePhase(p.String())
		if !ok || back != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), back, ok)
		}
	}
	if _, ok := ParsePhase("bogus"); ok {
		t.Error("ParsePhase accepted a bogus name")
	}
}

// TestProfileSnapshotOmitsEmpty: only observed phases appear.
func TestProfileSnapshotOmitsEmpty(t *testing.T) {
	p := NewProfile()
	p.Observe(PhaseFarkas, 10)
	snap := p.Snapshot()
	if len(snap) != 1 || snap[0].Name != "farkas" || snap[0].Count != 1 || snap[0].SumNS != 10 {
		t.Fatalf("snapshot: %+v", snap)
	}
}
