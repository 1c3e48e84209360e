package service

// Batch submission: up to Config.MaxBatch solve requests in one call,
// admitted atomically (the whole batch or none), deduplicated through
// the same canonical-key cache + singleflight as individual submits,
// and — the point — warm-chained: items that differ only in device
// parameters (capacity, alpha, scratch memory) are linked into chains
// in sweep order, each successor deferred until its predecessor
// finishes so the delta engine finds the predecessor's cached build
// and re-solves warm instead of cold. A design-space exploration
// submitted as a batch costs one cold solve per structural family
// plus cheap warm re-solves, instead of K cold solves.

import (
	"fmt"
	"sort"
	"time"
)

// ErrBatchTooLarge reports a batch that can never be accepted whole:
// more items than Config.MaxBatch, or (with rate admission enabled)
// more items than the token bucket's Burst depth. Non-retryable.
var ErrBatchTooLarge = fmt.Errorf("service: batch too large")

// ErrEmptyBatch reports a batch with no items.
var ErrEmptyBatch = fmt.Errorf("service: empty batch")

// BatchRequest is the wire form of POST /v1/batch.
type BatchRequest struct {
	Items []*Request `json:"items"`
}

// batchRecord tracks one batch for GET /v1/batch/{id}. Guarded by
// Service.mu.
type batchRecord struct {
	id        string
	jobIDs    []string
	chains    int
	submitted time.Time
}

// BatchInfo is the JSON view of a batch: its per-item jobs in
// submission order, the number of warm chains formed, and whether
// every job has reached a terminal state. Jobs evicted from the
// history window before the batch is queried report status "expired".
type BatchInfo struct {
	ID          string    `json:"id"`
	SubmittedAt time.Time `json:"submitted_at"`
	// Chains is the number of warm chains the batch was grouped into
	// (structural families; each costs at most one cold solve).
	Chains int `json:"chains"`
	// Done reports that every job in the batch is terminal.
	Done bool      `json:"done"`
	Jobs []JobInfo `json:"jobs"`
}

// StatusExpired is reported by batch status for jobs already evicted
// from the finished-job history window; no live job ever carries it.
const StatusExpired JobStatus = "expired"

// SubmitBatch validates, admits and enqueues a batch of requests,
// returning the batch view with one queued job per item. Admission is
// atomic: if any item fails validation, or the batch does not fit the
// rate/queue budget as a whole, nothing is enqueued. Items sharing a
// structural signature (same graph, allocation and options; different
// device parameters) are chained in sweep order — ascending scratch
// memory, capacity, alpha — and each chain successor waits for its
// predecessor, re-solving warm from the predecessor's cached build.
func (s *Service) SubmitBatch(reqs []*Request) (BatchInfo, error) {
	bi, _, err := s.submitBatch(reqs)
	return bi, err
}

// submitBatch is SubmitBatch returning also the batch's jobs in request
// order: a caller waiting on them holds the records themselves, which
// history eviction cannot take away.
func (s *Service) submitBatch(reqs []*Request) (BatchInfo, []*job, error) {
	if len(reqs) == 0 {
		return BatchInfo{}, nil, ErrEmptyBatch
	}
	if len(reqs) > s.cfg.MaxBatch {
		return BatchInfo{}, nil, fmt.Errorf("%w: %d items (max %d)", ErrBatchTooLarge, len(reqs), s.cfg.MaxBatch)
	}
	// A batch larger than the token bucket's depth can never be
	// admitted, no matter how long the client waits; rejecting it as
	// retryable rate_limited would have the client retry forever. Fail
	// it up front as non-retryable (HTTP 400), like an over-MaxBatch
	// batch.
	if s.cfg.Admission.Rate > 0 && len(reqs) > s.cfg.Admission.Burst {
		return BatchInfo{}, nil, fmt.Errorf("%w: %d items exceed the admission burst %d and can never be admitted",
			ErrBatchTooLarge, len(reqs), s.cfg.Admission.Burst)
	}
	cis := make([]*instance, len(reqs))
	for i, r := range reqs {
		ci, err := r.compile(s.cfg.DefaultTimeout, s.cfg.DefaultParallelism)
		if err != nil {
			return BatchInfo{}, nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		cis[i] = ci
	}

	// Group items into warm chains by structural signature and order
	// each chain like a sweep: ascending scratch memory, then capacity,
	// then alpha, then submission order. Neighboring bound sets keep
	// the delta small, which keeps the warm starts effective.
	// Record-mode items are never chained (they bypass cache and
	// singleflight by design), and admission uses the lowest priority
	// in the batch so a mixed batch cannot use a budget its background
	// items would be denied.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := cis[order[a]], cis[order[b]]
		if ia.chain != ib.chain {
			return ia.chain < ib.chain
		}
		da, db := ia.inst.Device, ib.inst.Device
		if da.ScratchMem != db.ScratchMem {
			return da.ScratchMem < db.ScratchMem
		}
		if da.CapacityFG != db.CapacityFG {
			return da.CapacityFG < db.CapacityFG
		}
		if da.Alpha != db.Alpha {
			return da.Alpha < db.Alpha
		}
		return order[a] < order[b]
	})

	minPriority := reqs[0].Priority
	for _, r := range reqs[1:] {
		if r.Priority < minPriority {
			minPriority = r.Priority
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return BatchInfo{}, nil, ErrClosed
	}
	if err := s.admitNLocked(minPriority, len(reqs)); err != nil {
		return BatchInfo{}, nil, err
	}

	s.batchSeq++
	batchID := fmt.Sprintf("b%08x", s.batchSeq)
	rec := &batchRecord{id: batchID, jobIDs: make([]string, len(reqs)), submitted: time.Now()}
	jobs := make([]*job, len(reqs))

	// Enqueue in chain order. The first job of each chain (or any
	// record-mode job) runs immediately; successors are deferred with
	// their predecessor's canonical key as warm anchor. Identical items
	// (equal canonical keys) chain too: by the time the duplicate runs,
	// its result is already cached, so the solve happens exactly once.
	var prevChain string
	var prevJob *job
	chains := 0
	for _, idx := range order {
		ci := cis[idx]
		// preadmitted: admitNLocked charged the whole batch above (n
		// tokens, n queue slots) with s.mu held throughout, so
		// enqueueLocked must not re-admit — and cannot shed — here.
		cl := &chainLink{batchID: batchID, preadmitted: true}
		chained := !ci.record && prevJob != nil && prevChain == ci.chain
		if chained {
			cl.baseKey = prevJob.req.key
			cl.defer_ = true
		} else {
			chains++
		}
		id, err := s.enqueueLocked(ci, reqs[idx], nil, cl)
		if err != nil {
			return BatchInfo{}, nil, fmt.Errorf("batch item %d: %w", idx, err)
		}
		j := s.jobs[id]
		if chained {
			prevJob.nextID = id
		}
		if !ci.record {
			prevChain, prevJob = ci.chain, j
		}
		rec.jobIDs[idx] = id
		jobs[idx] = j
	}
	rec.chains = chains
	s.stats.batches++
	s.batches[batchID] = rec
	s.batchOrder = append(s.batchOrder, batchID)
	if evict := len(s.batchOrder) - s.cfg.History; evict > 0 {
		for _, id := range s.batchOrder[:evict] {
			delete(s.batches, id)
		}
		n := copy(s.batchOrder, s.batchOrder[evict:])
		clear(s.batchOrder[n:])
		s.batchOrder = s.batchOrder[:n]
	}
	return s.batchInfoLocked(rec), jobs, nil
}

// Batch returns the state of a batch and its jobs. ErrUnknownJob for
// unknown or evicted batch ids.
func (s *Service) Batch(id string) (BatchInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.batches[id]
	if !ok {
		return BatchInfo{}, ErrUnknownJob
	}
	return s.batchInfoLocked(rec), nil
}

func (s *Service) batchInfoLocked(rec *batchRecord) BatchInfo {
	bi := BatchInfo{
		ID:          rec.id,
		SubmittedAt: rec.submitted,
		Chains:      rec.chains,
		Done:        true,
		Jobs:        make([]JobInfo, 0, len(rec.jobIDs)),
	}
	for _, id := range rec.jobIDs {
		j, ok := s.jobs[id]
		if !ok {
			// evicted from history: terminal by definition
			bi.Jobs = append(bi.Jobs, JobInfo{ID: id, Status: StatusExpired, Batch: rec.id})
			continue
		}
		if !j.status.Finished() {
			bi.Done = false
		}
		bi.Jobs = append(bi.Jobs, s.infoLocked(j))
	}
	return bi
}
