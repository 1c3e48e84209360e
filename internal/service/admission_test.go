package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestOverloadStorm saturates a tiny queue from many goroutines over
// HTTP and checks the load-shedding contract: every rejection is a
// well-formed 429 envelope with a typed queue_full code and a positive
// integral Retry-After, and every accepted job still finishes. Run
// under -race in CI.
func TestOverloadStorm(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueLimit: 3})

	// pin the single worker so storm submissions pile into the queue
	blocker, err := s.Submit(heavyRequest(900))
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	body, err := json.Marshal(fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	const fan = 24
	type outcome struct {
		status int
		code   string
		retry  string
		jobID  string
		body   string
	}
	outcomes := make([]outcome, fan)
	var wg sync.WaitGroup
	for i := 0; i < fan; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			if err != nil {
				outcomes[i] = outcome{status: -1, body: err.Error()}
				return
			}
			defer resp.Body.Close()
			data, _ := io.ReadAll(resp.Body)
			o := outcome{status: resp.StatusCode, retry: resp.Header.Get("Retry-After"), body: string(data)}
			if resp.StatusCode == http.StatusAccepted {
				var info JobInfo
				if json.Unmarshal(data, &info) == nil {
					o.jobID = info.ID
				}
			} else {
				var e errorEnvelope
				if json.Unmarshal(data, &e) == nil {
					o.code = e.Error.Code
				}
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	var accepted []string
	rejected := 0
	for i, o := range outcomes {
		switch o.status {
		case http.StatusAccepted:
			if o.jobID == "" {
				t.Fatalf("request %d: 202 without a job id: %s", i, o.body)
			}
			accepted = append(accepted, o.jobID)
		case http.StatusTooManyRequests:
			rejected++
			if o.code != ShedQueueFull {
				t.Fatalf("request %d: 429 code %q, want queue_full: %s", i, o.code, o.body)
			}
			secs, err := strconv.Atoi(o.retry)
			if err != nil || secs < 1 {
				t.Fatalf("request %d: Retry-After %q, want a positive integer", i, o.retry)
			}
		default:
			t.Fatalf("request %d: status %d, want 202 or 429: %s", i, o.status, o.body)
		}
	}
	if len(accepted) == 0 || rejected == 0 {
		t.Fatalf("storm split accepted=%d rejected=%d; want both nonzero", len(accepted), rejected)
	}
	// QueueLimit 3 at the normal-priority budget (90%) admits 2 queued
	// jobs while the worker is pinned
	if len(accepted) > 2 {
		t.Fatalf("%d accepted, want at most the priority-0 budget of 2", len(accepted))
	}
	if st := s.Stats(); st.ShedQueueFull != uint64(rejected) {
		t.Fatalf("stats shed_queue_full = %d, want %d", st.ShedQueueFull, rejected)
	}

	// unblock the worker: every accepted job must run to completion
	s.Cancel(blocker)
	waitFinished(t, s, blocker, 10*time.Second)
	for _, id := range accepted {
		if info := waitFinished(t, s, id, 30*time.Second); info.Status != StatusDone {
			t.Fatalf("accepted job %s: %s (%s)", id, info.Status, info.Error)
		}
	}
}

// TestRateLimitAdmission pins the token bucket: Burst submissions pass,
// the next is shed with a typed rate_limited error whose retry hint
// reflects the (deliberately glacial) refill rate.
func TestRateLimitAdmission(t *testing.T) {
	s := New(Config{Workers: 2, Admission: Admission{Rate: 0.001, Burst: 2}})
	defer closeBounded(t, s)

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(fastRequest()); err != nil {
			t.Fatalf("submission %d within burst: %v", i, err)
		}
	}
	_, err := s.Submit(fastRequest())
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("rate rejection is %T, want *ShedError", err)
	}
	if shed.Code != ShedRateLimited || shed.RetryAfter < time.Second {
		t.Fatalf("shed = {code:%q retry:%v}", shed.Code, shed.RetryAfter)
	}
	if st := s.Stats(); st.ShedRateLimited != 1 {
		t.Fatalf("stats shed_rate_limited = %d, want 1", st.ShedRateLimited)
	}
}

// TestPriorityQueueBudgets walks the admission ladder on one queue:
// background work is shed at half the queue, normal work at 90%, and
// elevated priorities reach the full limit.
func TestPriorityQueueBudgets(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 10})

	at := func(i, priority int) error {
		r := heavyRequest(i)
		r.Priority = priority
		_, err := s.Submit(r)
		return err
	}

	blocker, err := s.Submit(heavyRequest(800)) // pins the worker
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}

	// background budget: 50% of 10
	for i := 0; i < 5; i++ {
		if err := at(810+i, -1); err != nil {
			t.Fatalf("background %d: %v", i, err)
		}
	}
	if err := at(819, -1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("6th background admitted past its budget: %v", err)
	}
	// normal budget: 90% of 10, so 4 more fit on top of the 5 queued
	for i := 0; i < 4; i++ {
		if err := at(820+i, 0); err != nil {
			t.Fatalf("normal %d: %v", i, err)
		}
	}
	if err := at(829, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("normal submission admitted past its budget: %v", err)
	}
	// elevated priority reaches the full queue
	if err := at(830, 5); err != nil {
		t.Fatalf("elevated submission at 9/10: %v", err)
	}
	if err := at(831, 5); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("elevated submission admitted past QueueLimit: %v", err)
	}

	s.Cancel(blocker)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Close(ctx) // cancels the queued heavies
}

// TestQueueFullPreservesTokens pins the admission order: the queue
// budget is checked before the token bucket, so a queue_full rejection
// burns no tokens. (The old order consumed a token first, turning
// repeat rejections into spurious rate_limited errors and penalizing
// the next unrelated submission for work that was never admitted.)
func TestQueueFullPreservesTokens(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 1, Admission: Admission{Rate: 0.001, Burst: 3}})

	blocker, err := s.Submit(heavyRequest(840)) // token 3→2; pins the worker
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	queued := heavyRequest(841)
	queued.Priority = 1 // full queue budget of 1
	if _, err := s.Submit(queued); err != nil {
		t.Fatal(err) // token 2→1; fills the queue
	}

	// both rejections must be queue_full and cost nothing: with the old
	// token-first order the first shed burned the last token and the
	// second came back rate_limited
	for i := 0; i < 2; i++ {
		over := heavyRequest(842)
		over.Priority = 1
		_, err := s.Submit(over)
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("over-budget submit %d: %v, want ErrQueueFull", i, err)
		}
	}
	if st := s.Stats(); st.ShedQueueFull != 2 || st.ShedRateLimited != 0 {
		t.Fatalf("stats shed_queue_full=%d shed_rate_limited=%d, want 2/0", st.ShedQueueFull, st.ShedRateLimited)
	}

	// drain the queue and spend the preserved token
	s.Cancel(blocker)
	waitFinished(t, s, blocker, 10*time.Second)
	for s.Stats().Queued != 0 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(heavyRequest(843)); err != nil {
		t.Fatalf("submit after queue drain: %v (queue_full sheds burned the token)", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = s.Close(ctx) // cancels the running heavies
}

// TestBodyTooLarge pins the request-size cap: every decoding endpoint
// rejects an oversized body with the typed 413 envelope, and normal
// bodies still pass.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})

	big := fmt.Sprintf(`{"graph": %q}`, strings.Repeat("x", 2048))
	for _, ep := range []string{"/v1/solve", "/v1/jobs", "/v1/sweep", "/v1/batch", "/v1/jobs/j1/amend"} {
		resp, err := http.Post(ts.URL+ep, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("%s: %v", ep, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", ep, resp.StatusCode, data)
		}
		var e errorEnvelope
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("%s: 413 body is not the error envelope: %s", ep, data)
		}
		if e.Error.Code != "body_too_large" || e.Error.Message == "" {
			t.Fatalf("%s: envelope %+v", ep, e.Error)
		}
	}

	// a small valid request still decodes under the cap
	var info JobInfo
	postV1(t, ts.URL+"/v1/jobs", fastRequest(), http.StatusAccepted, &info)
	if info.ID == "" {
		t.Fatal("valid request rejected under the body cap")
	}
}

// TestHistoryEvictionShrinksTogether is the regression test for the
// doneOrder re-slicing leak: eviction must shrink the job map and the
// order slice in lockstep, and the slice's backing array must not
// drift (the old s.doneOrder[1:] kept every evicted ID reachable and
// marched the data pointer through an ever-growing array).
func TestHistoryEvictionShrinksTogether(t *testing.T) {
	s := New(Config{Workers: 1, History: 3})
	defer closeBounded(t, s)
	ctx := context.Background()

	var base *string
	const total = 10
	for i := 0; i < total; i++ {
		if _, err := s.Solve(ctx, fastRequest()); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if i == 5 {
			// past the first eviction: the backing array must be stable
			// from here on
			s.mu.Lock()
			base = unsafe.SliceData(s.doneOrder)
			s.mu.Unlock()
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.doneOrder) != 3 {
		t.Fatalf("doneOrder holds %d ids, want History=3", len(s.doneOrder))
	}
	if len(s.jobs) != len(s.doneOrder) {
		t.Fatalf("jobs map holds %d records but doneOrder %d: eviction leaks job records",
			len(s.jobs), len(s.doneOrder))
	}
	for _, id := range s.doneOrder {
		if _, ok := s.jobs[id]; !ok {
			t.Fatalf("doneOrder names %s but the map lacks it", id)
		}
	}
	if ptr := unsafe.SliceData(s.doneOrder); ptr != base {
		t.Fatal("doneOrder backing array drifted across evictions: eviction re-slices instead of copying down")
	}
}
