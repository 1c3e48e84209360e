// Package service runs temporal-partitioning solves as jobs on a
// bounded worker pool. It is the concurrency layer in front of
// internal/core: design-space exploration fires many — frequently
// identical — Kaul–Vemuri instances at the optimizer, and the service
// turns the blocking, single-caller core.SolveInstance into a
// concurrent, cancellable, deduplicated and observable API.
//
// Pieces:
//
//   - a priority queue (FIFO within a priority) feeding a fixed pool
//     of worker goroutines (default GOMAXPROCS);
//   - cooperative cancellation wired through core, milp and the lp
//     pivot loops, so cancelling a job (or a client disconnecting)
//     stops the branch-and-bound search within milliseconds;
//   - an instance cache keyed by a canonical hash of (graph, library,
//     N, L, Ms, C, alpha, options) with singleflight semantics:
//     identical in-flight instances share one solve, and completed
//     results are kept by the delta engine, whose one cache serves
//     both exact hits and warm-start bases;
//   - per-job and aggregate metrics (queue wait, solve wall time,
//     branch-and-bound nodes, LP pivots, cache hits/misses).
//
// The HTTP front-end in cmd/tpserve exposes the same operations as a
// JSON API; see NewHandler.
package service

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/exact"
	"repro/internal/milp"
	"repro/internal/trace"
)

// Sentinel errors of Submit/Solve.
var (
	// ErrClosed reports a submission after Close.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull reports that the queue limit was reached.
	ErrQueueFull = errors.New("service: queue full")
	// ErrUnknownJob reports an unknown job ID.
	ErrUnknownJob = errors.New("service: unknown job")
	// ErrJobRunning reports an amend of a job that has not finished:
	// the base build is only stable (and its conclusions only reusable)
	// once the job is terminal.
	ErrJobRunning = errors.New("service: job still running")
)

// Config tunes a Service. The zero value picks sensible defaults.
type Config struct {
	// Workers is the number of concurrent solver goroutines; 0 means
	// GOMAXPROCS.
	Workers int
	// QueueLimit bounds the number of queued (not yet running) jobs;
	// 0 means 1024. Submissions beyond it fail with ErrQueueFull.
	QueueLimit int
	// CacheSize bounds the delta engine's cache of completed results;
	// 0 means 256, negative disables exact hits and warm bases alike
	// (in-flight deduplication stays active).
	CacheSize int
	// DefaultTimeout bounds each solve when the request carries no
	// time limit of its own; 0 means 60 s.
	DefaultTimeout time.Duration
	// History bounds how many finished job records are kept for
	// GET /jobs/{id}; 0 means 4096. The oldest finished records are
	// evicted first.
	History int
	// DefaultParallelism is the branch-and-bound worker count applied
	// to requests that carry no parallelism of their own; 0 means 1
	// (serial search). It does not affect the instance cache key.
	DefaultParallelism int
	// StallWindow arms the gap-stall watchdog: a fresh solve whose best
	// bound and incumbent both fail to move for this long gets a stall
	// trace event and a black-box flush. 0 disables the watchdog.
	StallWindow time.Duration
	// BlackBoxCap bounds each job's black-box ring (kept-last solve
	// events, flushed on anomaly); 0 means trace.DefaultBlackBoxCap.
	BlackBoxCap int
	// SpanSink, when set, receives every finished span of every job —
	// the hook cmd/tpserve uses to stream NDJSON spans to a file. Called
	// from solver goroutines; must be safe for concurrent use.
	SpanSink func(trace.SpanRec)
	// OnBlackBoxFlush, when set, is called once per job whose black box
	// flushes, with the frozen dump. Called from whatever goroutine
	// detected the anomaly; must not block.
	OnBlackBoxFlush func(jobID string, d trace.BBDump)
	// InjectFault, when set, edits the options of every fresh solve just
	// before dispatch. A test hook (panic injection, per-node delays) —
	// deliberately not reachable from the wire, and applied after the
	// cache key is computed so it never perturbs instance identity.
	InjectFault func(*core.Options)
	// Admission tunes load shedding: token-bucket rate admission and the
	// per-priority queue-budget ladder. The zero value disables rate
	// admission and applies the default budgets; see Admission.
	Admission Admission
	// MaxBatch caps the number of requests one POST /v1/batch may carry,
	// and the grid points of one POST /v1/sweep; 0 means 64.
	MaxBatch int
	// MaxBodyBytes caps every decoded HTTP request body; 0 means 8 MiB,
	// negative disables the cap. Oversized bodies get a typed 413.
	MaxBodyBytes int64
}

func (c *Config) defaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 1024
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.History <= 0 {
		c.History = 4096
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 8 << 20
	}
	c.Admission.defaults()
}

// JobStatus is the lifecycle state of a job.
type JobStatus string

const (
	StatusQueued    JobStatus = "queued"
	StatusRunning   JobStatus = "running"
	StatusDone      JobStatus = "done"
	StatusFailed    JobStatus = "failed"
	StatusCancelled JobStatus = "cancelled"
)

// Finished reports whether the status is terminal.
func (s JobStatus) Finished() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// job is the internal job record. All mutable fields are guarded by
// Service.mu except cancelCh/done, which are closed at most once.
type job struct {
	id       string
	req      *instance
	priority int
	seq      uint64
	// orig is the submitted request, retained so an amend can overlay
	// partial edits onto it.
	orig *Request
	// amend lineage: amendOf names the base job, gen counts amend
	// generations from the cold root, baseKey is the base job's
	// canonical key (the delta engine's warm-start anchor), and
	// deltaClass/deltaPath/primed record how the engine dispatched the
	// solve.
	amendOf    string
	gen        int
	baseKey    string
	deltaClass string
	deltaPath  string
	primed     bool
	// batch chaining: batchID names the batch the job arrived in, nextID
	// the chain successor to release when this job finalizes, and
	// deferred marks a chained job holding queue capacity but not yet in
	// the heap (it enters when its predecessor — whose build is its warm
	// anchor via baseKey — reaches a terminal state).
	batchID  string
	nextID   string
	deferred bool

	status             JobStatus
	submitted, started time.Time
	finished           time.Time
	cacheHit           bool
	result             *core.Result
	err                error
	// recording is the search-tree capture of a record-mode job, set
	// when its solve finishes and served by GET /v1/jobs/{id}/recording.
	recording  *trace.Recording
	cancelCh   chan struct{}
	cancelOnce sync.Once
	done       chan struct{}
	index      int // heap index; -1 when not queued
	// events buffers this job's solve events for live streaming
	// (GET /v1/jobs/{id}/events). Fed by the flight's fanout while the
	// solve runs; closed by finalizeLocked after the terminal job
	// event, which ends any attached SSE stream.
	events *trace.Ring
	// spans collects the job's span tree (request → queue/solve →
	// build/root-lp/search/... → per-worker children), adopting the
	// trace id of the submitter's traceparent header when one was sent.
	// rootSpan covers the whole job; queueSpan its time in the queue.
	spans     *trace.Spans
	rootSpan  *trace.Span
	queueSpan *trace.Span
	// bb is the job's always-on black-box ring; live mirrors the
	// in-flight search for GET /v1/debug/solves. stalled records a
	// watchdog firing.
	bb      *trace.BlackBox
	live    *milp.SearchStatus
	stalled atomic.Bool
}

// flight is one in-progress solve shared by every job with the same
// canonical key. waiters counts the jobs attached to it; when the last
// one cancels, the underlying solve is cancelled too.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	res     *core.Result
	err     error
	// fanout distributes the shared solve's trace events to the event
	// ring of every job attached to this flight; joiners Add their ring
	// and see events from the join onward.
	fanout *trace.Fanout
}

// Service is a concurrent solve service. Create with New; all methods
// are safe for concurrent use.
type Service struct {
	cfg Config

	mu        sync.Mutex
	cond      *sync.Cond
	queue     jobQueue
	jobs      map[string]*job
	flights   map[string]*flight
	seq       uint64
	running   int
	closed    bool
	doneOrder []string // finished job IDs, oldest first, for eviction
	stats     counters
	// admission state: the submission token bucket and the count of
	// deferred batch-chain jobs (they hold queue capacity while waiting
	// on a predecessor).
	bucket   tokenBucket
	deferred int
	// batches records recent batch submissions for GET /v1/batch/{id};
	// batchOrder drives FIFO eviction like doneOrder does for jobs.
	batches    map[string]*batchRecord
	batchOrder []string
	batchSeq   uint64

	// prof aggregates per-phase solver wall time across every fresh
	// solve for GET /v1/metrics. Its buckets are atomic, so it is
	// attached to concurrent solves directly; recorded jobs use a
	// private profile that is merged in afterwards so their recording
	// footer stays per-job.
	prof *trace.Profile

	// delta caches completed results — the exact-hit result cache — with
	// the builds of the most recent ones, and dispatches every fresh
	// solve down the cheapest sound path (cold / warm-started /
	// conclusion reuse) given the edit against a cached base; see
	// internal/delta.
	delta *delta.Engine

	wg sync.WaitGroup
}

// New starts a service with cfg.Workers solver goroutines.
func New(cfg Config) *Service {
	cfg.defaults()
	s := &Service{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		flights: make(map[string]*flight),
		batches: make(map[string]*batchRecord),
		prof:    trace.NewProfile(),
		delta:   delta.NewEngine(max(cfg.CacheSize, 0)),
	}
	if cfg.Admission.Rate > 0 {
		s.bucket = tokenBucket{rate: cfg.Admission.Rate, burst: float64(cfg.Admission.Burst)}
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the configured worker count.
func (s *Service) Workers() int { return s.cfg.Workers }

// Submit validates and enqueues a request, returning the job ID.
func (s *Service) Submit(req *Request) (string, error) {
	ci, err := req.compile(s.cfg.DefaultTimeout, s.cfg.DefaultParallelism)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(ci, req, nil, nil)
}

// lineage carries amend parentage into enqueueLocked: the base job,
// the amend generation, the base's canonical key (the delta engine's
// warm anchor) and the base ring's total (the new ring's index
// anchor, keeping SSE event ids monotone across the amend boundary).
type lineage struct {
	of      string
	gen     int
	baseKey string
	ringAt  uint64
}

// chainLink carries batch parentage into enqueueLocked: the batch the
// job belongs to, the canonical key of the chain predecessor whose
// cached build warm-starts this solve, and whether the job must wait
// (deferred, out of the heap) until that predecessor finalizes.
// preadmitted marks a job whose admission was already charged by the
// batch's atomic admitNLocked; enqueueLocked must not admit it again,
// or each batch item would cost two tokens and the bucket could empty
// mid-batch, orphaning the items enqueued before the failure.
type chainLink struct {
	batchID     string
	baseKey     string
	defer_      bool
	preadmitted bool
}

// enqueueLocked creates and enqueues a job. Callers hold s.mu.
func (s *Service) enqueueLocked(ci *instance, orig *Request, ln *lineage, cl *chainLink) (string, error) {
	if s.closed {
		return "", ErrClosed
	}
	if cl == nil || !cl.preadmitted {
		if err := s.admitLocked(orig.Priority); err != nil {
			return "", err
		}
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%08x", s.seq),
		req:       ci,
		orig:      orig,
		priority:  orig.Priority,
		seq:       s.seq,
		status:    StatusQueued,
		submitted: time.Now(),
		cancelCh:  make(chan struct{}),
		done:      make(chan struct{}),
		index:     -1,
		events:    trace.NewRing(0),
	}
	j.spans = trace.NewSpans(orig.TraceParent)
	if s.cfg.SpanSink != nil {
		j.spans.SetSink(s.cfg.SpanSink)
	}
	j.rootSpan = j.spans.Root("request")
	j.rootSpan.SetStr("job", j.id)
	j.rootSpan.SetStr("graph", ci.inst.Graph.Name)
	j.queueSpan = j.rootSpan.Child("queue")
	j.bb = trace.NewBlackBox(s.cfg.BlackBoxCap)
	if s.cfg.OnBlackBoxFlush != nil {
		id, hook := j.id, s.cfg.OnBlackBoxFlush
		j.bb.SetOnFlush(func(d trace.BBDump) { hook(id, d) })
	}
	j.live = milp.NewSearchStatus()
	if ln != nil {
		j.amendOf, j.gen, j.baseKey = ln.of, ln.gen, ln.baseKey
		j.events = trace.NewRingAt(0, ln.ringAt)
		s.stats.amends++
	}
	if cl != nil {
		j.batchID = cl.batchID
		if cl.baseKey != "" {
			j.baseKey = cl.baseKey
		}
		j.deferred = cl.defer_
	}
	s.jobs[j.id] = j
	if j.deferred {
		// chained batch job: holds queue capacity (counted by admission)
		// but enters the heap only when its predecessor finalizes, so the
		// delta engine finds the predecessor's build cached and re-solves
		// warm instead of cold.
		s.deferred++
	} else {
		heap.Push(&s.queue, j)
		s.cond.Signal()
	}
	s.stats.submitted++
	return j.id, nil
}

// Amend overlays a partial edit onto a finished job's request and
// enqueues the merged request as a new job carrying the base's
// lineage. The solve dispatches through the delta engine against the
// base's cached build: pure bound edits (capacity, scratch, α) reuse
// its presolve and root basis, structural edits run cold. Amending a
// queued or running job fails with ErrJobRunning; the base build is
// only stable once the job is terminal. The amended job's canonical
// key derives from the merged request, so repeated identical amends
// deduplicate through the result cache and singleflight like any
// other submission.
func (s *Service) Amend(baseID string, a *AmendRequest) (string, error) {
	s.mu.Lock()
	base, ok := s.jobs[baseID]
	if !ok {
		s.mu.Unlock()
		return "", ErrUnknownJob
	}
	if !base.status.Finished() {
		st := base.status
		s.mu.Unlock()
		return "", fmt.Errorf("%w: %s is %s", ErrJobRunning, baseID, st)
	}
	ln := &lineage{of: baseID, gen: base.gen + 1, baseKey: base.req.key, ringAt: base.events.Total()}
	orig := base.orig
	s.mu.Unlock()

	merged := a.overlay(orig)
	ci, err := merged.compile(s.cfg.DefaultTimeout, s.cfg.DefaultParallelism)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(ci, merged, ln, nil)
}

// Job returns a snapshot of the job's state.
func (s *Service) Job(id string) (JobInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobInfo{}, ErrUnknownJob
	}
	return s.infoLocked(j), nil
}

// Cancel requests cancellation of a job. A queued job is cancelled
// immediately; a running job stops cooperatively (the solver polls the
// context in its pivot and node loops). It reports whether the job
// existed and was still cancellable.
func (s *Service) Cancel(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return ok && s.cancelLocked(j)
}

// cancelLocked cancels a queued, deferred or running job, reporting
// whether it was still cancellable. Callers hold s.mu.
func (s *Service) cancelLocked(j *job) bool {
	switch j.status {
	case StatusQueued:
		if j.index >= 0 {
			heap.Remove(&s.queue, j.index)
		}
		// (a deferred chain job has index -1 and is not in the heap; its
		// bookkeeping is released by finalizeLocked)
		s.finalizeLocked(j, nil, context.Canceled, StatusCancelled)
		return true
	case StatusRunning:
		// settle the job right here rather than from the solve's watcher
		// goroutine: under heavy CPU load the watcher may not be
		// scheduled for tens of milliseconds, and the caller-observable
		// cancellation latency must not depend on that. The watcher
		// still handles the flight bookkeeping (waiter counts, stopping
		// the shared solve when the last waiter leaves).
		s.finalizeLocked(j, nil, context.Canceled, StatusCancelled)
		j.cancelOnce.Do(func() { close(j.cancelCh) })
		return true
	default:
		return false
	}
}

// Solve submits the request and waits for it under ctx. When ctx is
// cancelled or expires, the job is cancelled (stopping the underlying
// branch and bound) and the job's final state is returned together
// with the context's error.
func (s *Service) Solve(ctx context.Context, req *Request) (JobInfo, error) {
	id, err := s.Submit(req)
	if err != nil {
		return JobInfo{}, err
	}
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	select {
	case <-j.done:
		return s.Job(id)
	case <-ctx.Done():
		s.Cancel(id)
		// the cancellation is cooperative: wait for the job to settle
		// so the caller observes its terminal state
		<-j.done
		info, _ := s.Job(id)
		return info, ctx.Err()
	}
}

// Stats returns a snapshot of the aggregate metrics, including the
// per-phase solver wall-time histograms accumulated over fresh solves.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	dm := s.delta.Metrics()
	st := s.stats.snapshot(s.cfg.Workers, s.queue.Len(), s.running, len(s.flights), dm.Entries)
	st.Deferred = s.deferred
	st.Phases = s.prof.Snapshot()
	st.Delta = dm
	return st
}

// Close stops accepting jobs and drains the pool: queued jobs still
// run. If ctx expires first, every remaining job is cancelled and
// Close returns ctx.Err() once the workers exit.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-drained
		return ctx.Err()
	}
}

// cancelAll cancels every queued, deferred and running job in one pass
// under s.mu. Every unfinished job is in s.jobs (history evicts only
// finished ones), and a successor that a cancelled predecessor releases
// into the heap is still unfinished, so the pass cancels it too — either
// before its predecessor (then nothing is released) or after.
func (s *Service) cancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		s.cancelLocked(j)
	}
}

// worker pulls jobs until the service is closed and the queue drained.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.queue.Len() == 0 && !s.closed {
			s.cond.Wait()
		}
		if s.queue.Len() == 0 {
			s.mu.Unlock()
			return
		}
		j := heap.Pop(&s.queue).(*job)
		j.status = StatusRunning
		j.started = time.Now()
		s.running++
		s.mu.Unlock()
		// queue wait ends here: close the queue span and attribute the
		// latency to the service-level queue-wait phase histogram
		j.queueSpan.End()
		if wait := j.started.Sub(j.submitted); wait > 0 {
			s.prof.Observe(trace.PhaseQueueWait, wait.Nanoseconds())
		}
		s.run(j)
		s.mu.Lock()
		s.running--
		s.mu.Unlock()
	}
}

// run executes one job: result cache, then singleflight join, then a
// fresh solve as the flight leader. A record-mode job skips the cache
// and the flight map — a shared or cached result has no recording — and
// runs its own fresh solve with a flight recorder and a private phase
// profile, merged into /v1/metrics afterwards so the recording footer
// stays per-job. The delta engine still caches its result (exactly what
// an unrecorded request would compute), but concurrent identical jobs
// neither join nor reuse it.
func (s *Service) run(j *job) {
	key, record := j.req.key, j.req.record
	s.mu.Lock()
	if !record {
		// the engine stores a result before its flight is removed below,
		// so under s.mu a key is always either cached or in flight once
		// solved
		if res, ok := s.delta.Lookup(key); ok {
			j.cacheHit = true
			s.stats.cacheHits++
			s.finalizeLocked(j, res, nil, StatusDone)
			s.mu.Unlock()
			return
		}
		if f, ok := s.flights[key]; ok {
			s.joinLocked(j, f)
			return
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	op := j.req.opt
	var f *flight
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(0)
		rec.SetLabel(j.req.inst.Graph.Name)
		op.Trace, op.Record, op.Profile = trace.New(j.events), rec, trace.NewProfile()
	} else {
		f = &flight{done: make(chan struct{}), cancel: cancel, waiters: 1,
			fanout: trace.NewFanout(j.events)}
		s.flights[key] = f
		op.Trace = trace.New(f.fanout)
		op.Profile = s.prof // aggregate phase attribution for /v1/metrics
	}
	s.stats.cacheMisses++
	s.mu.Unlock()

	// Mirror the job's cancellation onto the solve: a flight is
	// cancelled only when its last attached job cancels, so one
	// impatient caller cannot kill a solve other callers still want.
	watchStop := make(chan struct{})
	go func() {
		select {
		case <-j.cancelCh:
			s.mu.Lock()
			last := true
			if f != nil {
				f.waiters--
				last = f.waiters == 0
			}
			// settle the cancelled job immediately; the solve keeps
			// running for the remaining waiters, if any
			s.finalizeLocked(j, nil, context.Canceled, StatusCancelled)
			s.mu.Unlock()
			if last {
				cancel()
			}
		case <-watchStop:
		}
	}()

	endSolve := s.beginSolve(j, &op)
	res, dinfo, err := s.solveLabeled(ctx, j, op)
	endSolve(res, dinfo, err)
	close(watchStop)

	if rec != nil && j.amendOf != "" {
		// stamp the amend lineage before snapshotting, so the recording
		// names its base job and the delta path the engine took
		rec.SetAmend(&trace.AmendRec{Of: j.amendOf, Generation: j.gen,
			Class: dinfo.Class, Path: dinfo.Path})
	}
	s.mu.Lock()
	j.deltaClass, j.deltaPath, j.primed = dinfo.Class, dinfo.Path, dinfo.Primed
	if f != nil {
		f.res, f.err = res, err
		delete(s.flights, key)
	} else {
		s.prof.Merge(op.Profile) // fold the per-job phases into /v1/metrics
		j.recording = rec.Snapshot()
	}
	if res != nil {
		// solver-effort metrics count actual work, so cache hits and
		// joiners never double-count
		s.stats.nodes += uint64(res.Nodes)
		s.stats.pivots += uint64(res.LPIterations)
	}
	s.settleLocked(j, res, err)
	s.mu.Unlock()
	cancel()
	if f != nil {
		close(f.done)
	}
}

// joinLocked attaches j to an identical in-flight solve and waits for
// its outcome, sharing its event stream from this point onward. Called
// with s.mu held; releases it.
func (s *Service) joinLocked(j *job, f *flight) {
	f.waiters++
	j.cacheHit = true
	s.stats.cacheHits++
	f.fanout.Add(j.events)
	s.mu.Unlock()
	select {
	case <-f.done:
		s.mu.Lock()
		s.settleLocked(j, f.res, f.err)
		s.mu.Unlock()
	case <-j.cancelCh:
		s.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		s.finalizeLocked(j, nil, context.Canceled, StatusCancelled)
		s.mu.Unlock()
		if last {
			f.cancel()
		}
	}
}

// settleLocked finalizes a job with a solve's outcome unless the
// cancellation watcher already settled it. Callers hold s.mu.
func (s *Service) settleLocked(j *job, res *core.Result, err error) {
	switch {
	case j.status.Finished():
	case err != nil:
		s.finalizeLocked(j, nil, err, StatusFailed)
	case res.Cancelled:
		s.finalizeLocked(j, res, context.Canceled, StatusCancelled)
	default:
		s.finalizeLocked(j, res, nil, StatusDone)
	}
}

// solveLabeled runs the solve through the delta engine — which caches
// the build under the job's canonical key and warm-starts it from the
// base job's build on amends — with pprof labels identifying the job
// and graph, so CPU profiles of the service slice by job.
func (s *Service) solveLabeled(ctx context.Context, j *job, op core.Options) (res *core.Result, info delta.Info, err error) {
	labels := pprof.Labels("tp_job", j.id, "tp_graph", j.req.inst.Graph.Name)
	pprof.Do(ctx, labels, func(ctx context.Context) {
		res, info, err = s.delta.Solve(ctx, j.req.key, j.baseKey, j.req.inst, op)
	})
	return res, info, err
}

// Recording returns the search-tree capture of a finished record-mode
// job. ErrUnknownJob for unknown ids; a nil recording means the job was
// not submitted with record or has not finished its solve yet.
func (s *Service) Recording(id string) (*trace.Recording, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.recording, nil
}

// Certificate returns the exact-arithmetic certificate of a finished
// certify-mode job. ErrUnknownJob for unknown ids; a nil certificate
// means the job was not submitted with options.certify, has not
// finished, or ended in a state with nothing certifiable. Certify is
// part of the canonical cache key, so a cached result of a certified
// solve carries its certificate too.
func (s *Service) Certificate(id string) (*exact.Certificate, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	if j.result == nil {
		return nil, nil
	}
	return j.result.Certificate, nil
}

// finalizeLocked moves a job to a terminal status and updates the
// aggregate metrics. Callers hold s.mu.
func (s *Service) finalizeLocked(j *job, res *core.Result, err error, status JobStatus) {
	if j.status.Finished() {
		return
	}
	j.status = status
	j.result = res
	j.err = err
	j.finished = time.Now()
	if j.deferred {
		// cancelled before its chain predecessor finished: release the
		// queue capacity it was holding
		j.deferred = false
		s.deferred--
	}
	if j.nextID != "" {
		// release the chain successor: its warm anchor (this job's build)
		// is as cached as it will ever be. Released even when this job
		// failed or was cancelled — the successor then simply misses the
		// delta cache and solves cold.
		if nj, ok := s.jobs[j.nextID]; ok && nj.deferred && nj.status == StatusQueued {
			nj.deferred = false
			s.deferred--
			heap.Push(&s.queue, nj)
			s.cond.Signal()
		}
	}
	switch status {
	case StatusDone:
		s.stats.completed++
	case StatusFailed:
		s.stats.failed++
	case StatusCancelled:
		s.stats.cancelled++
	}
	wait := j.finished.Sub(j.submitted)
	if !j.started.IsZero() {
		wait = j.started.Sub(j.submitted)
		solve := j.finished.Sub(j.started)
		s.stats.solveTime += solve
		if solve > s.stats.maxSolve {
			s.stats.maxSolve = solve
		}
	}
	s.stats.queueWait += wait
	if wait > s.stats.maxQueueWait {
		s.stats.maxQueueWait = wait
	}
	s.doneOrder = append(s.doneOrder, j.id)
	if evict := len(s.doneOrder) - s.cfg.History; evict > 0 {
		// copy-down instead of re-slicing ([1:] would keep the evicted
		// IDs reachable through the backing array forever)
		for _, id := range s.doneOrder[:evict] {
			delete(s.jobs, id)
		}
		n := copy(s.doneOrder, s.doneOrder[evict:])
		clear(s.doneOrder[n:])
		s.doneOrder = s.doneOrder[:n]
	}
	// terminal job event, then close the ring so attached SSE streams
	// drain it and end. Emitted directly (not through the flight's
	// tracer): cache hits and cancellations settle without any flight.
	e := trace.Event{
		Kind:   trace.KindJob,
		TMS:    durMS(j.finished.Sub(j.submitted)),
		Status: string(status),
	}
	if err != nil {
		e.Msg = err.Error()
	}
	if res != nil {
		e.Nodes = int64(res.Nodes)
		e.Pivots = int64(res.LPIterations)
		if res.Solution != nil {
			e.HasIncumbent = true
			e.Incumbent = float64(res.Solution.Comm)
		}
	}
	j.events.Emit(e)
	j.events.Close()
	// close out the span tree (End is idempotent, so a queue span
	// already ended at worker pickup is unaffected)
	j.queueSpan.End()
	j.rootSpan.SetStr("status", string(status))
	j.rootSpan.End()
	close(j.done)
}

// Events returns the live event ring of a job: the trace of its solve
// (model shape, root bound, node progress, incumbents, terminal
// status) plus the final job transition. The ring is closed once the
// job reaches a terminal state. Streaming readers combine Ring.Wait
// with Ring.Since; see the SSE handler in http.go.
func (s *Service) Events(id string) (*trace.Ring, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.events, nil
}

// infoLocked snapshots a job. Callers hold s.mu.
func (s *Service) infoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:          j.id,
		Status:      j.status,
		Priority:    j.priority,
		CacheHit:    j.cacheHit,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		info.QueueWaitMS = durMS(j.started.Sub(j.submitted))
	}
	if !j.finished.IsZero() {
		if !j.started.IsZero() {
			info.SolveMS = durMS(j.finished.Sub(j.started))
		} else {
			info.QueueWaitMS = durMS(j.finished.Sub(j.submitted))
		}
	}
	if j.result != nil {
		info.Result = outcomeOf(j.result)
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	if j.amendOf != "" {
		info.Amend = &AmendInfo{
			Of:         j.amendOf,
			Generation: j.gen,
			Class:      j.deltaClass,
			Path:       j.deltaPath,
			Primed:     j.primed,
		}
	}
	if j.batchID != "" {
		info.Batch = j.batchID
		if j.amendOf == "" && j.deltaPath != "" {
			info.Delta = &DeltaDispatch{
				Class:  j.deltaClass,
				Path:   j.deltaPath,
				Primed: j.primed,
			}
		}
	}
	info.TraceID = j.spans.TraceID()
	info.Stalled = j.stalled.Load()
	if reason, ok := j.bb.Flushed(); ok {
		info.BlackBox = reason
	}
	return info
}

// jobQueue is a priority queue: higher priority first, FIFO within a
// priority (by submission sequence number).
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(a, b int) bool {
	if q[a].priority != q[b].priority {
		return q[a].priority > q[b].priority
	}
	return q[a].seq < q[b].seq
}
func (q jobQueue) Swap(a, b int) {
	q[a], q[b] = q[b], q[a]
	q[a].index = a
	q[b].index = b
}
func (q *jobQueue) Push(x any) {
	j := x.(*job)
	j.index = len(*q)
	*q = append(*q, j)
}
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.index = -1
	*q = old[:n-1]
	return j
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
