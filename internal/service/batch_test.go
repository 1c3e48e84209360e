package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"
)

// waitBatchDone polls the batch view until every job is terminal.
func waitBatchDone(t *testing.T, s *Service, id string, deadline time.Duration) BatchInfo {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		bi, err := s.Batch(id)
		if err != nil {
			t.Fatalf("batch %s: %v", id, err)
		}
		if bi.Done {
			return bi
		}
		if time.Now().After(end) {
			t.Fatalf("batch %s not done after %v: %+v", id, deadline, bi)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBatchWarmChainEquivalence is the batch-vs-individual-submit
// differential: the same neighboring instances (one graph, capacities
// apart) solved individually on one service and as a batch on another
// must produce identical verdicts — but the batch forms one warm
// chain, solves each distinct instance exactly once, serves the
// duplicate item from the cache, and re-solves the successors warm
// from their predecessor's cached build rather than cold.
func TestBatchWarmChainEquivalence(t *testing.T) {
	ctx := context.Background()
	caps := []int{230, 170, 200} // deliberately unsorted; the chain runs ascending
	mk := func(c int) *Request {
		r := fastRequest()
		r.Device.CapacityFG = c
		return r
	}

	// baseline: individual cold submissions
	solo := New(Config{Workers: 2})
	defer closeBounded(t, solo)
	want := map[int]int{} // capacity → optimal comm
	for _, c := range caps {
		info, err := solo.Solve(ctx, mk(c))
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusDone || !info.Result.Optimal {
			t.Fatalf("individual solve at C=%d: %+v", c, info)
		}
		want[c] = info.Result.Comm
	}
	if st := solo.Stats(); st.CacheMisses != 3 || st.CacheHits != 0 {
		t.Fatalf("individual path: misses=%d hits=%d, want 3/0", st.CacheMisses, st.CacheHits)
	}

	// the same instances as one batch, plus a duplicate of the last
	s := New(Config{Workers: 2})
	defer closeBounded(t, s)
	items := []*Request{mk(caps[0]), mk(caps[1]), mk(caps[2]), mk(caps[2])}
	bi, err := s.SubmitBatch(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(bi.Jobs) != len(items) {
		t.Fatalf("batch returned %d jobs for %d items", len(bi.Jobs), len(items))
	}
	if bi.Chains != 1 {
		t.Fatalf("batch formed %d chains, want 1 (all items share a structure)", bi.Chains)
	}

	final := waitBatchDone(t, s, bi.ID, 60*time.Second)
	for i, ji := range final.Jobs {
		if ji.Status != StatusDone {
			t.Fatalf("batch item %d (%s): %s (%s)", i, ji.ID, ji.Status, ji.Error)
		}
		if ji.Batch != bi.ID {
			t.Fatalf("batch item %d carries batch %q, want %q", i, ji.Batch, bi.ID)
		}
		c := items[i].Device.CapacityFG
		if !ji.Result.Optimal || ji.Result.Comm != want[c] {
			t.Fatalf("batch item %d (C=%d): comm %d optimal=%v, individual %d",
				i, c, ji.Result.Comm, ji.Result.Optimal, want[c])
		}
	}

	// dedup accounting: 3 distinct instances solved once each, the
	// duplicate served from the cache — hits counted once, not per item
	st := s.Stats()
	if st.CacheMisses != 3 {
		t.Fatalf("batch path ran %d fresh solves, want 3", st.CacheMisses)
	}
	if st.CacheHits != 1 {
		t.Fatalf("batch path counted %d cache hits, want 1 (the duplicate)", st.CacheHits)
	}
	// warm chaining: both non-duplicate successors must leave the cold
	// path (bounds-only neighbors of a cached build)
	if st.Delta.Warm+st.Delta.Reuse < 2 {
		t.Fatalf("chain successors stayed cold: delta %+v", st.Delta)
	}
	warmJobs := 0
	for _, ji := range final.Jobs {
		if ji.Delta != nil && (ji.Delta.Path == "warm" || ji.Delta.Path == "reuse") {
			warmJobs++
		}
	}
	if warmJobs == 0 {
		t.Fatal("no batch job reports a warm/reuse delta dispatch")
	}
	if st.Batches != 1 || st.Deferred != 0 {
		t.Fatalf("stats batches=%d deferred=%d, want 1/0", st.Batches, st.Deferred)
	}
}

// TestBatchValidation pins the batch-level failures: empty and
// oversized batches, and an invalid item rejecting the whole call
// with nothing enqueued.
func TestBatchValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 2})
	defer closeBounded(t, s)

	if _, err := s.SubmitBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("empty batch: %v", err)
	}
	if _, err := s.SubmitBatch([]*Request{fastRequest(), fastRequest(), fastRequest()}); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: %v", err)
	}
	if _, err := s.SubmitBatch([]*Request{fastRequest(), {Graph: "not a graph"}}); err == nil {
		t.Fatal("batch with an invalid item accepted")
	}
	if st := s.Stats(); st.Submitted != 0 || st.Batches != 0 {
		t.Fatalf("failed batches enqueued work: %+v", st)
	}
	if _, err := s.Batch("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown batch: %v", err)
	}
}

// TestBatchAtomicAdmission: a batch that does not fit the queue budget
// as a whole is shed with one typed 429 error and nothing enqueued.
func TestBatchAtomicAdmission(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 4})

	blocker, err := s.Submit(heavyRequest(700))
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	// priority-0 budget is int(4*0.9) = 3; a 4-item batch cannot fit
	items := make([]*Request, 4)
	for i := range items {
		items[i] = heavyRequest(710 + i)
		items[i].Priority = 0
	}
	_, err = s.SubmitBatch(items)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-budget batch: %v", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Code != ShedQueueFull || shed.RetryAfter <= 0 {
		t.Fatalf("batch shed = %v", err)
	}
	if st := s.Stats(); st.Submitted != 1 || st.Queued != 0 || st.Deferred != 0 {
		t.Fatalf("shed batch left residue: %+v", st)
	}

	// a 3-item batch fits the same budget
	if _, err := s.SubmitBatch(items[:3]); err != nil {
		t.Fatalf("in-budget batch: %v", err)
	}

	s.Cancel(blocker)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Close(ctx)
}

// TestBatchRateAdmission pins rate admission over SubmitBatch: a batch
// of n items costs exactly n tokens (enqueueLocked must not re-admit
// items the batch already admitted atomically — double charging would
// empty the bucket mid-loop and orphan the items enqueued before the
// failure), an empty bucket sheds the whole batch with nothing
// enqueued, and a batch deeper than the bucket is rejected
// non-retryably instead of with a 429 the client would retry forever.
func TestBatchRateAdmission(t *testing.T) {
	s := New(Config{Workers: 2, Admission: Admission{Rate: 0.001, Burst: 3}})
	defer closeBounded(t, s)

	mk := func(c int) *Request {
		r := fastRequest()
		r.Device.CapacityFG = c
		return r
	}

	// deeper than Burst: permanently impossible at any wait, so the
	// rejection must be the non-retryable batch-too-large error, never
	// a retryable shed
	_, err := s.SubmitBatch([]*Request{mk(200), mk(210), mk(220), mk(230)})
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("over-burst batch: %v, want ErrBatchTooLarge", err)
	}
	var shed *ShedError
	if errors.As(err, &shed) {
		t.Fatalf("over-burst batch shed retryably (%+v); it can never be admitted", shed)
	}

	// exactly Burst items: the batch costs n tokens, not 2n, so it
	// fits the full bucket and every item enqueues
	bi, err := s.SubmitBatch([]*Request{mk(200), mk(210), mk(220)})
	if err != nil {
		t.Fatalf("batch within burst: %v (double admission would shed mid-batch)", err)
	}
	if len(bi.Jobs) != 3 {
		t.Fatalf("batch enqueued %d jobs, want 3", len(bi.Jobs))
	}
	if st := s.Stats(); st.Submitted != 3 {
		t.Fatalf("stats submitted = %d, want 3", st.Submitted)
	}

	// the bucket is now empty: a single submit sheds with rate_limited...
	if _, err := s.Submit(fastRequest()); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("submit on empty bucket: %v, want ErrRateLimited", err)
	}
	// ...and a further batch sheds whole — all or none, nothing enqueued
	_, err = s.SubmitBatch([]*Request{mk(240), mk(250)})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("batch on empty bucket: %v, want ErrRateLimited", err)
	}
	if !errors.As(err, &shed) || shed.Code != ShedRateLimited || shed.RetryAfter <= 0 {
		t.Fatalf("batch rate shed = %v", err)
	}
	if st := s.Stats(); st.Submitted != 3 || st.Batches != 1 {
		t.Fatalf("shed batch left residue: submitted=%d batches=%d", st.Submitted, st.Batches)
	}

	// the admitted batch is intact — every job finishes
	final := waitBatchDone(t, s, bi.ID, 60*time.Second)
	for i, ji := range final.Jobs {
		if ji.Status != StatusDone {
			t.Fatalf("batch item %d (%s): %s (%s)", i, ji.ID, ji.Status, ji.Error)
		}
	}
}

// TestV1BatchHTTP drives POST /v1/batch and GET /v1/batch/{id} end to
// end: 202 with the batch view, per-item job records reachable under
// /v1/jobs, the chain's successor leaving the cold path as reported by
// GET /v1/stats, and the typed 400/404 envelopes.
func TestV1BatchHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	r1 := fastRequest()
	r2 := fastRequest()
	r2.Device.CapacityFG = 200
	resp, data := postJSON(t, ts.URL+"/v1/batch", BatchRequest{Items: []*Request{r1, r2}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
	var bi BatchInfo
	if err := json.Unmarshal(data, &bi); err != nil {
		t.Fatal(err)
	}
	if bi.ID == "" || len(bi.Jobs) != 2 {
		t.Fatalf("batch view %+v", bi)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur BatchInfo
		if resp := getJSON(t, ts.URL+"/v1/batch/"+bi.ID, &cur); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch status: %d", resp.StatusCode)
		}
		if cur.Done {
			for i, ji := range cur.Jobs {
				if ji.Status != StatusDone {
					t.Fatalf("batch job %d: %s (%s)", i, ji.Status, ji.Error)
				}
				var single JobInfo
				if resp := getJSON(t, ts.URL+"/v1/jobs/"+ji.ID, &single); resp.StatusCode != http.StatusOK {
					t.Fatalf("job %s: %d", ji.ID, resp.StatusCode)
				}
				if single.Batch != bi.ID {
					t.Fatalf("job %s carries batch %q, want %q", ji.ID, single.Batch, bi.ID)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch %s never finished: %+v", bi.ID, cur)
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st struct {
		Delta struct {
			Warm  uint64 `json:"warm"`
			Reuse uint64 `json:"reuse"`
		} `json:"delta"`
	}
	if resp := getJSON(t, ts.URL+"/v1/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	if st.Delta.Warm+st.Delta.Reuse < 1 {
		t.Fatalf("batch successor stayed cold: delta %+v", st.Delta)
	}

	// typed failures: empty batch, null item, unknown batch id
	resp, data = postJSON(t, ts.URL+"/v1/batch", BatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d: %s", resp.StatusCode, data)
	}
	var e errorEnvelope
	if err := json.Unmarshal(data, &e); err != nil || e.Error.Code != "bad_request" {
		t.Fatalf("empty batch envelope: %s", data)
	}
	resp, data = postJSON(t, ts.URL+"/v1/batch", map[string]any{"items": []any{nil}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("null item: status %d: %s", resp.StatusCode, data)
	}
	if resp := getJSON(t, ts.URL+"/v1/batch/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown batch: status %d", resp.StatusCode)
	}
	_ = s
}
