package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/randgraph"
)

// fastRequest returns the HAL diffeq benchmark with an allocation that
// solves optimally in well under a second: the workhorse for cache and
// determinism assertions.
func fastRequest() *Request {
	return &Request{
		Graph: benchmarks.Diffeq().String(),
		Allocation: map[string]int{
			"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1,
		},
		Options: SolveOptions{Options: core.Options{N: 2, L: 2, PrimeHeuristic: true}},
	}
}

// heavyRequest returns a paper-style random graph squeezed into too
// many XC4010 segments: the search space is large enough that the
// solve runs for tens of seconds unless cancelled. The name suffix
// gives each call a distinct instance identity.
func heavyRequest(i int) *Request {
	g := strings.Replace(randgraph.MustPaper(1).String(),
		"graph graph1", fmt.Sprintf("graph heavy%d", i), 1)
	return &Request{
		Graph:    g,
		Options:  SolveOptions{Options: core.Options{N: 5, L: 1}, TimeLimitMS: 120000},
		Priority: 10,
	}
}

// closeBounded shuts the service down with a short grace period so a
// failing test does not wait out every in-flight time limit.
func closeBounded(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Close(ctx)
}

func waitFinished(t *testing.T, s *Service, id string, deadline time.Duration) JobInfo {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		info, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if info.Status.Finished() {
			return info
		}
		if time.Now().After(end) {
			t.Fatalf("job %s still %s after %v", id, info.Status, deadline)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMixedLoad fires 32 jobs at a 4-worker service: 8 heavy distinct
// instances that get cancelled mid-solve, 20 identical fast instances
// that must deduplicate, and 4 queued jobs cancelled before they run.
// It asserts cancellation latency, cache hits and deterministic
// objectives, and — because the fast jobs can only start once the
// cancelled heavy solves release their workers — that cancellation
// really stops the branch and bound.
func TestMixedLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long concurrency test")
	}
	s := New(Config{Workers: 4, DefaultTimeout: 60 * time.Second})
	defer closeBounded(t, s)

	// 8 heavy jobs at high priority: 4 start immediately, 4 queue.
	var heavy []string
	for i := 0; i < 8; i++ {
		id, err := s.Submit(heavyRequest(i))
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, id)
	}

	// 20 identical fast jobs behind them.
	var fast []string
	for i := 0; i < 20; i++ {
		id, err := s.Submit(fastRequest())
		if err != nil {
			t.Fatal(err)
		}
		fast = append(fast, id)
	}

	// 4 low-priority jobs cancelled while still queued (all workers are
	// held by heavy solves, so they cannot have started).
	for i := 0; i < 4; i++ {
		req := fastRequest()
		req.Priority = -5
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Cancel(id) {
			t.Fatalf("queued job %s not cancellable", id)
		}
		info := waitFinished(t, s, id, time.Second)
		if info.Status != StatusCancelled {
			t.Fatalf("queued-cancelled job %s: status %s", id, info.Status)
		}
		if info.CacheHit {
			t.Fatalf("queued-cancelled job %s claims a cache hit", id)
		}
	}

	// Wait until the pool is saturated with heavy solves, then cancel
	// all of them. Finalization is decoupled from the solver's poll
	// cadence, so each job must settle within 100ms.
	for end := time.Now().Add(10 * time.Second); ; {
		if s.Stats().Running == 4 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("pool never saturated: %+v", s.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, id := range heavy {
		start := time.Now()
		s.Cancel(id)
		info := waitFinished(t, s, id, 100*time.Millisecond)
		if lat := time.Since(start); lat > 100*time.Millisecond {
			t.Fatalf("cancellation of %s took %v", id, lat)
		}
		if info.Status != StatusCancelled {
			t.Fatalf("heavy job %s: status %s, want cancelled", id, info.Status)
		}
	}

	// The fast jobs only run once the cancelled heavy solves actually
	// stop and free their workers — a generous bound still proves the
	// branch and bound obeyed the cancellation.
	comms := map[int]int{}
	for _, id := range fast {
		info := waitFinished(t, s, id, 30*time.Second)
		if info.Status != StatusDone {
			t.Fatalf("fast job %s: status %s (%s)", id, info.Status, info.Error)
		}
		if info.Result == nil || !info.Result.Feasible {
			t.Fatalf("fast job %s: no feasible result", id)
		}
		comms[info.Result.Comm]++
	}
	if len(comms) != 1 {
		t.Fatalf("identical instances produced different objectives: %v", comms)
	}

	st := s.Stats()
	if st.Submitted != 32 {
		t.Fatalf("submitted = %d, want 32", st.Submitted)
	}
	if st.Completed != 20 {
		t.Fatalf("completed = %d, want 20", st.Completed)
	}
	if st.Cancelled != 12 {
		t.Fatalf("cancelled = %d, want 12", st.Cancelled)
	}
	// 20 identical fast jobs share one fresh solve: 19 hits between the
	// in-flight join and the result cache.
	if st.CacheHits != 19 {
		t.Fatalf("cache hits = %d, want 19", st.CacheHits)
	}
	if st.CacheMisses < 5 {
		t.Fatalf("cache misses = %d, want >= 5", st.CacheMisses)
	}
}

func TestSolveSyncAndCache(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close(context.Background())

	info, err := s.Solve(context.Background(), fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusDone || info.Result == nil {
		t.Fatalf("first solve: %+v", info)
	}
	if info.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	again, err := s.Solve(context.Background(), fastRequest())
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("identical request missed the cache")
	}
	if again.Result.Comm != info.Result.Comm {
		t.Fatalf("cached objective %d != fresh %d", again.Result.Comm, info.Result.Comm)
	}
	if s.Stats().TotalNodes != uint64(info.Result.Nodes) {
		t.Fatalf("cache hit added solver effort: %+v", s.Stats())
	}
}

// TestLRUCacheEviction pins the service's result cache, now kept by the
// delta engine, end to end: Config.CacheSize bounds it, the least
// recently used result is evicted first, and a negative size disables
// exact hits.
func TestLRUCacheEviction(t *testing.T) {
	reqL := func(l int) *Request {
		r := fastRequest()
		r.Options.L = l
		return r
	}
	s := New(Config{Workers: 1, CacheSize: 2})
	defer closeBounded(t, s)
	solve := func(s *Service, l int) bool {
		t.Helper()
		info, err := s.Solve(context.Background(), reqL(l))
		if err != nil {
			t.Fatal(err)
		}
		if info.Status != StatusDone || info.Result == nil {
			t.Fatalf("L=%d: %+v", l, info)
		}
		return info.CacheHit
	}
	solve(s, 2) // a
	solve(s, 3) // b
	if !solve(s, 2) {
		t.Fatal("a evicted early")
	}
	solve(s, 4) // c evicts b: a was just used
	if !solve(s, 2) {
		t.Fatal("a evicted despite recent use")
	}
	if solve(s, 3) {
		t.Fatal("b survived eviction")
	}

	d := New(Config{Workers: 1, CacheSize: -1})
	defer closeBounded(t, d)
	solve(d, 2)
	if solve(d, 2) {
		t.Fatal("disabled cache stored a result")
	}
}

// TestPresolveInfeasibleCached pins that a verdict proved by presolve,
// before any LP exists, is cached like any other: the repeat request is
// an exact hit.
func TestPresolveInfeasibleCached(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)

	req := fastRequest()
	req.Options.Presolve = true
	req.Options.N, req.Options.L = 1, 0
	req.Device.CapacityFG = 30
	first, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone || first.Result.Feasible || !first.Result.Optimal || first.CacheHit {
		t.Fatalf("first solve: %+v", first)
	}
	again, err := s.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Result.Feasible || !again.Result.Optimal {
		t.Fatalf("repeat of a presolve-infeasible request: %+v", again)
	}
}

func TestSolveContextCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	info, err := s.Solve(ctx, heavyRequest(99))
	if err == nil {
		t.Fatal("expired context returned no error")
	}
	if info.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", info.Status)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("cancelled solve returned after %v", el)
	}
}

func TestPriorityOrder(t *testing.T) {
	s := New(Config{Workers: 1})
	defer closeBounded(t, s)

	// hold the single worker with a job we cancel at the end
	blocker, err := s.Submit(heavyRequest(100))
	if err != nil {
		t.Fatal(err)
	}
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	low := fastRequest()
	low.Priority = 1
	lowID, err := s.Submit(low)
	if err != nil {
		t.Fatal(err)
	}
	high := fastRequest()
	high.Options.L = 3 // distinct instance so the cache cannot reorder
	high.Priority = 2
	highID, err := s.Submit(high)
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(blocker)

	hi := waitFinished(t, s, highID, 30*time.Second)
	lo := waitFinished(t, s, lowID, 30*time.Second)
	if hi.Status != StatusDone || lo.Status != StatusDone {
		t.Fatalf("statuses: high=%s low=%s", hi.Status, lo.Status)
	}
	if hi.QueueWaitMS > lo.QueueWaitMS {
		t.Fatalf("high-priority job waited longer (%.1fms) than low (%.1fms)",
			hi.QueueWaitMS, lo.QueueWaitMS)
	}
}

func TestQueueLimitAndClose(t *testing.T) {
	s := New(Config{Workers: 1, QueueLimit: 2})

	// the worker grabs the first job; wait for the dequeue so the next
	// two land in the queue and fill it exactly
	ids := []string{}
	id, err := s.Submit(heavyRequest(200))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	for s.Stats().Running == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < 3; i++ {
		id, err := s.Submit(heavyRequest(200 + i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := s.Submit(heavyRequest(299)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	} else {
		var shed *ShedError
		if !errors.As(err, &shed) {
			t.Fatalf("queue-full rejection is %T, want *ShedError", err)
		}
		if shed.Code != ShedQueueFull || shed.RetryAfter <= 0 {
			t.Fatalf("shed = {code:%q retry:%v}, want queue_full with positive retry", shed.Code, shed.RetryAfter)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Close(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Close = %v, want deadline exceeded", err)
	}
	if _, err := s.Submit(fastRequest()); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	for _, id := range ids {
		info := waitFinished(t, s, id, time.Second)
		if info.Status != StatusCancelled {
			t.Fatalf("job %s after forced close: %s", id, info.Status)
		}
	}
}

func TestUnknownJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	if _, err := s.Job("nope"); err != ErrUnknownJob {
		t.Fatalf("err = %v, want ErrUnknownJob", err)
	}
	if s.Cancel("nope") {
		t.Fatal("Cancel of unknown job reported true")
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close(context.Background())
	cases := []*Request{
		{},                       // empty graph
		{Graph: "graph g\ntask"}, // malformed text
		{Graph: benchmarks.Diffeq().String(), Device: DeviceSpec{Name: "xc9999"}},
		{Graph: benchmarks.Diffeq().String(), Allocation: map[string]int{"frob32": 1}},
	}
	for i, req := range cases {
		if _, err := s.Submit(req); err == nil {
			t.Errorf("case %d: invalid request accepted", i)
		}
	}
}

func TestCanonicalKeyIdentity(t *testing.T) {
	a, err := fastRequest().compile(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fastRequest().compile(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.key != b.key {
		t.Fatal("identical requests hash differently")
	}
	// a different latency bound is a different instance
	c := fastRequest()
	c.Options.L = 3
	ci, err := c.compile(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ci.key == a.key {
		t.Fatal("distinct options collide")
	}
	// a renamed but otherwise identical graph is a different instance
	d := fastRequest()
	d.Graph = strings.Replace(d.Graph, "graph diffeq", "graph other", 1)
	di, err := d.compile(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if di.key == a.key {
		t.Fatal("renamed graph collides")
	}
	// the effective time limit is part of the identity
	e, err := fastRequest().compile(2*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.key == a.key {
		t.Fatal("different default timeouts collide")
	}
	// parallelism is NOT part of the identity: a parallel solve returns
	// the same result, so requests differing only in worker count must
	// share cache entries and singleflight groups.
	f := fastRequest()
	f.Options.Search.Parallelism = 4
	fi, err := f.compile(time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fi.key != a.key {
		t.Fatal("parallelism changed the cache key")
	}
	if fi.opt.Search.Parallelism != 4 {
		t.Fatalf("parallelism = %d, want 4", fi.opt.Search.Parallelism)
	}
	// the service default fills an unset request value
	g, err := fastRequest().compile(time.Minute, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.opt.Search.Parallelism != 3 {
		t.Fatalf("default parallelism = %d, want 3", g.opt.Search.Parallelism)
	}
	if g.key != a.key {
		t.Fatal("default parallelism changed the cache key")
	}
}

// TestCanonicalKeySearchOptions pins the search group's cache
// semantics — worker count and gate threshold never enter the key,
// while the knobs that can change the reported assignment (mode,
// branch, cuts, dive) do split cache entries — and the normalization
// of equivalent option spellings onto one key.
func TestCanonicalKeySearchOptions(t *testing.T) {
	compile := func(mut func(*Request)) *instance {
		t.Helper()
		r := fastRequest()
		mut(r)
		ci, err := r.compile(time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ci
	}
	base := compile(func(*Request) {})

	// parallelism and threshold are excluded from the identity
	par := compile(func(r *Request) {
		r.Options.Search = core.SearchOptions{Parallelism: 8, Threshold: -1}
	})
	if par.key != base.key {
		t.Fatal("search parallelism/threshold changed the cache key")
	}
	if par.opt.Search.Parallelism != 8 {
		t.Fatal("search parallelism lost in compilation")
	}

	// the branch rule and the strengthening toggles are part of it
	for i, mut := range []func(*Request){
		func(r *Request) { r.Options.Search = core.SearchOptions{Branch: core.BranchMostFrac} },
		func(r *Request) { r.Options.Search = core.SearchOptions{Cuts: core.ToggleOn} },
		func(r *Request) { r.Options.Search = core.SearchOptions{Dive: core.ToggleOff} },
	} {
		if ci := compile(mut); ci.key == base.key {
			t.Errorf("case %d: search knob absent from the cache key", i)
		}
	}

	// equivalent spellings of one solve share a key and a warm chain
	untightened := func(r *Request) { r.Options.Base = true }
	for _, tc := range []struct {
		name   string
		a, b   func(*Request)
		differ bool
	}{
		{name: "all cut families vs omitted",
			a: func(r *Request) { r.Options.Cuts = core.CutsAll }, b: func(*Request) {}},
		{name: "cut mask on an untightened model vs none",
			a: func(r *Request) { untightened(r); r.Options.Cuts = core.Cut28 }, b: untightened},
		{name: "a partial cut mask stays distinct", differ: true,
			a: func(r *Request) { r.Options.Cuts = core.Cut28 }, b: func(*Request) {}},
	} {
		a, b := compile(tc.a), compile(tc.b)
		if (a.key != b.key) != tc.differ || (a.chain != b.chain) != tc.differ {
			t.Errorf("%s: keys differ = %v, chains differ = %v, want %v",
				tc.name, a.key != b.key, a.chain != b.chain, tc.differ)
		}
	}

	// an out-of-range search group is rejected at compile time
	bad := fastRequest()
	bad.Options.Search = core.SearchOptions{Parallelism: -2}
	if _, err := bad.compile(time.Minute, 0); err == nil {
		t.Fatal("invalid search options compiled")
	}
}
