package service

// Admission control. Two mechanisms shed load before it can pile up
// behind the worker pool:
//
//   - a token bucket over all submissions (solve, async jobs, amends,
//     batch items), so a misbehaving client is throttled at a
//     configured sustained rate instead of filling the queue;
//   - per-priority queue budgets: background work (priority < 0) is
//     shed once the queue is half full, normal work (priority 0) at 90%,
//     and only elevated priorities may use the full queue — so
//     interactive traffic always finds room even under a background
//     flood.
//
// Every rejection is a *ShedError carrying a retry hint. The hint for
// queue rejections is derived from the observed queue-wait histogram
// (the p90 of the trace.PhaseQueueWait profile): a client told to come
// back after the queue's typical drain time has a real chance of being
// admitted, where a constant would either hammer or starve. Rate
// rejections use the token bucket's exact refill time. HTTP maps shed
// errors to 429 with a Retry-After header; see writeSubmitError.

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/trace"
)

// ErrRateLimited reports a submission shed by the token bucket,
// matchable with errors.Is through *ShedError.
var ErrRateLimited = errors.New("service: rate limited")

// Shed-error codes, also the "code" of the HTTP 429 envelope.
const (
	ShedQueueFull   = "queue_full"
	ShedRateLimited = "rate_limited"
)

// ShedError is a load-shedding rejection: the typed code that becomes
// the HTTP envelope code and a retry hint that becomes the Retry-After
// header. It wraps the matching sentinel (ErrQueueFull or
// ErrRateLimited), so errors.Is keeps working for callers of Submit.
type ShedError struct {
	// Code is the machine-readable rejection class: ShedQueueFull or
	// ShedRateLimited.
	Code string
	// RetryAfter is the suggested back-off before resubmitting; always
	// positive.
	RetryAfter time.Duration

	msg      string
	sentinel error
}

func (e *ShedError) Error() string { return e.msg }
func (e *ShedError) Unwrap() error { return e.sentinel }

// Admission tunes the load-shedding layer. The zero value disables rate
// admission and applies the default queue-budget ladder.
type Admission struct {
	// Rate is the sustained admitted submissions per second across all
	// entry points (token bucket); 0 disables rate admission.
	Rate float64
	// Burst is the token bucket depth; 0 means ceil(Rate), at least 1.
	Burst int
	// BackgroundShare is the fraction of QueueLimit that submissions
	// with priority < 0 may occupy; 0 means 0.5. Set to 1 to give
	// background work the full queue.
	BackgroundShare float64
	// NormalShare is the fraction of QueueLimit that submissions with
	// priority 0 may occupy; 0 means 0.9. Priorities above 0 always get
	// the full queue.
	NormalShare float64
}

func (a *Admission) defaults() {
	if a.BackgroundShare == 0 {
		a.BackgroundShare = 0.5
	}
	if a.NormalShare == 0 {
		a.NormalShare = 0.9
	}
	if a.Rate > 0 && a.Burst <= 0 {
		a.Burst = int(math.Ceil(a.Rate))
		if a.Burst < 1 {
			a.Burst = 1
		}
	}
}

// tokenBucket is a standard leaky token bucket. Guarded by Service.mu.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// takeN refills by the elapsed wall time and consumes n tokens
// atomically — all or none, so a batch is admitted or shed as a unit —
// reporting the wait until they would be available on failure. n beyond
// the bucket depth can never succeed; the reported wait is then the
// full-refill time.
func (tb *tokenBucket) takeN(now time.Time, n float64) (bool, time.Duration) {
	if !tb.last.IsZero() {
		tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	} else {
		tb.tokens = tb.burst
	}
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
	if tb.tokens >= n {
		tb.tokens -= n
		return true, 0
	}
	need := n
	if need > tb.burst {
		need = tb.burst
	}
	wait := time.Duration((need - tb.tokens) / tb.rate * float64(time.Second))
	return false, wait
}

// Retry-After clamp: never tell a client to come back in under a
// second (sub-second retries would re-create the storm being shed) or
// over a minute (the queue's state a minute out is unknowable).
const (
	minRetryAfter = time.Second
	maxRetryAfter = time.Minute
)

func clampRetry(d time.Duration) time.Duration {
	if d < minRetryAfter {
		return minRetryAfter
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// queueBudgetLocked is the effective queue capacity for a submission at
// the given priority, per the admission ladder. Always at least 1, so a
// tiny queue still admits one job of any priority. Callers hold s.mu.
func (s *Service) queueBudgetLocked(priority int) int {
	limit := s.cfg.QueueLimit
	switch {
	case priority < 0:
		limit = int(float64(limit) * s.cfg.Admission.BackgroundShare)
	case priority == 0:
		limit = int(float64(limit) * s.cfg.Admission.NormalShare)
	}
	if limit < 1 {
		limit = 1
	}
	return limit
}

// admitLocked applies rate admission and the per-priority queue budget
// to one submission. Callers hold s.mu. Deferred batch-chain jobs count
// toward queue occupancy: they hold queue capacity even before their
// predecessor releases them into the heap.
func (s *Service) admitLocked(priority int) error {
	return s.admitNLocked(priority, 1)
}

// admitNLocked admits n submissions as a unit (all or none): the whole
// batch is shed with one 429 rather than partially enqueued. The queue
// budget is checked before the token bucket so a queue_full rejection
// has no side effect — a shed submission must not burn tokens and
// penalize the next, unrelated one. Callers hold s.mu.
func (s *Service) admitNLocked(priority, n int) error {
	budget := s.queueBudgetLocked(priority)
	if occupied := s.queue.Len() + s.deferred; occupied+n > budget {
		s.stats.shedQueue++
		return &ShedError{
			Code:       ShedQueueFull,
			RetryAfter: s.queueRetryLocked(),
			msg: fmt.Sprintf("service: queue full (%d queued + %d submitted over budget %d at priority %d)",
				occupied, n, budget, priority),
			sentinel: ErrQueueFull,
		}
	}
	if s.bucket.rate > 0 {
		if ok, wait := s.bucket.takeN(time.Now(), float64(n)); !ok {
			s.stats.shedRate++
			return &ShedError{
				Code:       ShedRateLimited,
				RetryAfter: clampRetry(wait),
				msg:        fmt.Sprintf("service: rate limited (%.4g submissions/s admitted)", s.bucket.rate),
				sentinel:   ErrRateLimited,
			}
		}
	}
	return nil
}

// queueRetryLocked derives the queue_full retry hint from the observed
// queue-wait histogram: the p90 of every finished job's submit-to-
// pickup wait, clamped to [1s, 60s]. Before any job has finished, the
// floor applies. Callers hold s.mu.
func (s *Service) queueRetryLocked() time.Duration {
	return clampRetry(time.Duration(histQuantileNS(s.prof.Hist(trace.PhaseQueueWait), 0.9)))
}

// histQuantileNS reads an approximate quantile off a log-bucketed
// histogram: the upper edge (2^pow ns) of the bucket holding the q-th
// observation. 0 for an empty or nil histogram.
func histQuantileNS(h *trace.Hist, q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.Count()
	if total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for _, b := range h.Buckets() {
		cum += b.N
		if cum >= target {
			if b.Pow <= 0 {
				return 1
			}
			return int64(1) << uint(b.Pow)
		}
	}
	return 0
}
