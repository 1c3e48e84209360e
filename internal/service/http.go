package service

// The versioned JSON HTTP API of the service, mounted by cmd/tpserve
// and exercised end-to-end by the httptest suite:
//
//	POST   /v1/solve            synchronous solve; the request context
//	                            (client disconnect, server timeout)
//	                            cancels the search
//	POST   /v1/jobs             asynchronous submit, returns the job record
//	GET    /v1/jobs/{id}        job status + result
//	DELETE /v1/jobs/{id}        cooperative cancellation
//	POST   /v1/jobs/{id}/amend  re-solve a finished job with a partial
//	                            edit overlaid; bound-only edits (C, Ms,
//	                            α) warm-start from the base job's build.
//	                            409 while the base is queued/running.
//	POST   /v1/batch            submit up to Config.MaxBatch solve
//	                            requests at once; items differing only
//	                            in device parameters are chained through
//	                            the delta engine in sweep order, each
//	                            successor warm-started from its
//	                            predecessor's cached build
//	GET    /v1/batch/{id}       batch status: per-item job records plus
//	                            chain and completion accounting
//	POST   /v1/sweep            (N, L, Ms, C, α) design-space scan of at
//	                            most Config.MaxBatch points, run as one
//	                            batch on the worker pool; the response
//	                            waits for every point, and hanging up
//	                            cancels the unfinished ones
//	GET    /v1/jobs/{id}/events live solve progress as Server-Sent Events;
//	                            honors Last-Event-ID for resume
//	GET    /v1/jobs/{id}/recording
//	                            flight-recorder capture of a job
//	                            submitted with options.record (NDJSON;
//	                            ?gz=1 for the gzipped form)
//	GET    /v1/jobs/{id}/certificate
//	                            exact-arithmetic certificate of a job
//	                            submitted with options.certify (JSON)
//	GET    /v1/jobs/{id}/spans  the job's span tree (finished spans,
//	                            oldest first); pollable while it runs
//	GET    /v1/jobs/{id}/blackbox
//	                            black-box dump: the frozen anomaly
//	                            capture when the box flushed, else the
//	                            rolling live tail
//	GET    /v1/debug/solves     live snapshot of every in-flight search
//	                            (nodes, incumbent, bound, gap, steals,
//	                            per-worker phases)
//	GET    /v1/version          build identity of the running binary
//	GET    /v1/metrics          Prometheus text exposition
//	GET    /v1/stats            aggregate metrics snapshot (JSON)
//	GET    /v1/healthz          liveness
//
// POST /v1/solve and POST /v1/jobs accept a W3C traceparent header; the
// job's span tree adopts the caller's trace id and the response carries
// a traceparent header naming the job's root span.
//
// Errors are a uniform envelope: {"error":{"code":..., "message":...}},
// including the catch-all 404 for unknown paths. Load shedding is a
// 429 with a Retry-After header and a typed code (rate_limited,
// queue_full); request bodies beyond Config.MaxBodyBytes
// are a typed 413. 503 is reserved for a service that is shutting
// down. Bodies decode strictly: an unknown field is a 400 bad_request.
//
// Removed names answer with the code "gone" and a message naming the
// successor: a 404 for the pre-versioning paths (/solve, /jobs,
// /jobs/{id}, the JSON /metrics), a 400 for the removed options. The
// one unversioned survivor is GET /healthz: liveness probes are wired
// into infrastructure outside the API's versioning (load balancers,
// container runtimes), so it stays as a permanent alias of /v1/healthz.
//
// Only net/http and encoding/json; no external dependencies.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// NewHandler mounts the service's HTTP API on a fresh mux.
func NewHandler(s *Service) http.Handler {
	a := &api{s: s}
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/healthz", a.healthz)
	mux.HandleFunc("GET /v1/metrics", a.metrics)
	mux.HandleFunc("GET /v1/stats", a.stats)
	mux.HandleFunc("POST /v1/solve", a.solve)
	mux.HandleFunc("POST /v1/jobs", a.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", a.job)
	mux.HandleFunc("DELETE /v1/jobs/{id}", a.cancel)
	mux.HandleFunc("POST /v1/jobs/{id}/amend", a.amend)
	mux.HandleFunc("POST /v1/batch", a.batch)
	mux.HandleFunc("GET /v1/batch/{id}", a.batchStatus)
	mux.HandleFunc("POST /v1/sweep", a.sweep)
	mux.HandleFunc("GET /v1/jobs/{id}/events", a.events)
	mux.HandleFunc("GET /v1/jobs/{id}/recording", a.recording)
	mux.HandleFunc("GET /v1/jobs/{id}/certificate", a.certificate)
	mux.HandleFunc("GET /v1/jobs/{id}/spans", a.spans)
	mux.HandleFunc("GET /v1/jobs/{id}/blackbox", a.blackbox)
	mux.HandleFunc("GET /v1/debug/solves", a.debugSolves)
	mux.HandleFunc("GET /v1/version", a.version)

	// the liveness exception: probes configured in infrastructure
	// predate (and outlive) API versioning
	mux.HandleFunc("GET /healthz", a.healthz)

	// everything else — including the removed pre-/v1 aliases — gets
	// the typed 404 envelope instead of the mux's plain-text default
	mux.HandleFunc("/", a.notFound)

	return mux
}

// api holds the handler methods; one instance per NewHandler call.
type api struct {
	s *Service
}

// notFound is the catch-all for paths outside the mounted API,
// answering with the uniform error envelope. The removed pre-/v1
// aliases get a message pointing at their successor so old clients
// see where to migrate.
func (a *api) notFound(w http.ResponseWriter, r *http.Request) {
	successor := map[string]string{
		"/solve":   "/v1/solve",
		"/jobs":    "/v1/jobs",
		"/metrics": "/v1/stats",
	}
	path := r.URL.Path
	s, ok := successor[path]
	if !ok && len(path) > len("/jobs/") && path[:len("/jobs/")] == "/jobs/" {
		s, ok = "/v1"+path, true
	}
	if ok {
		writeError(w, http.StatusNotFound, "gone",
			fmt.Sprintf("the unversioned %s endpoint was removed; use %s", path, s))
		return
	}
	writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("no such endpoint %s", path))
}

func (a *api) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": a.s.Workers(),
	})
}

func (a *api) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.s.Stats())
}

func (a *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.s.Stats().WritePrometheus(w)
}

func (a *api) solve(w http.ResponseWriter, r *http.Request) {
	req, ok := a.decodeRequest(w, r)
	if !ok {
		return
	}
	info, err := a.s.Solve(r.Context(), req)
	if err != nil && info.ID == "" {
		writeSubmitError(w, err)
		return
	}
	code := http.StatusOK
	if err != nil {
		// the client went away or its deadline passed; the job was
		// cancelled cooperatively
		code = statusClientClosedRequest
	}
	a.echoTraceContext(w, info.ID)
	writeJSON(w, code, info)
}

func (a *api) submit(w http.ResponseWriter, r *http.Request) {
	req, ok := a.decodeRequest(w, r)
	if !ok {
		return
	}
	id, err := a.s.Submit(req)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	info, _ := a.s.Job(id)
	a.echoTraceContext(w, id)
	writeJSON(w, http.StatusAccepted, info)
}

// echoTraceContext stamps the response with the traceparent value of
// the job's root span, so the caller can stitch the job into its own
// distributed trace (and fetch the span tree by trace id later).
func (a *api) echoTraceContext(w http.ResponseWriter, id string) {
	if id == "" {
		return
	}
	if tp, err := a.s.TraceContext(id); err == nil && tp != "" {
		w.Header().Set("Traceparent", tp)
	}
}

func (a *api) job(w http.ResponseWriter, r *http.Request) {
	info, err := a.s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (a *api) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, err := a.s.Job(id); err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	a.s.Cancel(id) // best effort: false just means it already finished
	info, err := a.s.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// amend enqueues a re-solve of a finished job with a partial edit
// overlaid onto its request. The new job carries the base's lineage
// (amend.of/generation in its record) and its solve dispatches through
// the delta engine. 404 for unknown base jobs, 409 while the base is
// still queued or running.
func (a *api) amend(w http.ResponseWriter, r *http.Request) {
	var areq AmendRequest
	if !a.decodeJSON(w, r, "amendment", &areq) {
		return
	}
	id, err := a.s.Amend(r.PathValue("id"), &areq)
	if err != nil {
		switch {
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, "not_found", err.Error())
		case errors.Is(err, ErrJobRunning):
			writeError(w, http.StatusConflict, "job_running", err.Error())
		default:
			writeSubmitError(w, err)
		}
		return
	}
	info, _ := a.s.Job(id)
	writeJSON(w, http.StatusAccepted, info)
}

// sweep runs a design-space scan as one batch and answers when every
// point is done; the request context cancels the unfinished points.
// Oversized grids and invalid points are 400s, sheds are 429s like a
// batch's, and a sweep whose points were cancelled is a 499.
func (a *api) sweep(w http.ResponseWriter, r *http.Request) {
	var sreq SweepRequest
	if !a.decodeJSON(w, r, "sweep", &sreq) {
		return
	}
	res, err := a.s.Sweep(r.Context(), &sreq)
	if err != nil {
		if r.Context().Err() != nil || errors.Is(err, context.Canceled) {
			writeError(w, statusClientClosedRequest, "cancelled", err.Error())
			return
		}
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// batch submits up to Config.MaxBatch solve requests at once. The
// batch is admitted atomically: an invalid item, an over-budget queue
// or an empty token bucket rejects the whole call (400 or 429) with
// nothing enqueued. The 202 response is the batch view — per-item job
// records in submission order plus the number of warm chains formed.
func (a *api) batch(w http.ResponseWriter, r *http.Request) {
	var breq BatchRequest
	if !a.decodeJSON(w, r, "batch", &breq) {
		return
	}
	tp := r.Header.Get("Traceparent")
	for i, item := range breq.Items {
		if item == nil {
			writeError(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("batch item %d: null", i))
			return
		}
		item.TraceParent = tp
	}
	bi, err := a.s.SubmitBatch(breq.Items)
	if err != nil {
		switch {
		case errors.Is(err, ErrEmptyBatch), errors.Is(err, ErrBatchTooLarge):
			writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		default:
			writeSubmitError(w, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, bi)
}

func (a *api) batchStatus(w http.ResponseWriter, r *http.Request) {
	bi, err := a.s.Batch(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, bi)
}

// events streams the job's solve trace as Server-Sent Events: one
// event per trace.Event, the event name set to the kind, the id to the
// event's 1-based absolute position in the job's stream, the data to
// the JSON encoding. A reconnecting client sends the standard
// Last-Event-ID header (the browser EventSource does this
// automatically) and the stream resumes after that position — events
// still held by the ring are replayed, events that aged out of the
// bounded ring are lost, never duplicated. The stream ends when the
// job reaches a terminal state (the final "job" event is sent first)
// or the client disconnects. Sampled node events carry the incumbent
// objective, the proved bound, the relative gap and the node count, so
// `curl -N` renders live solver progress.
func (a *api) events(w http.ResponseWriter, r *http.Request) {
	ring, err := a.s.Events(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "unsupported", "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// SSE ids are the ring's absolute event indices, so Last-Event-ID
	// parses directly into the resume cursor for Since.
	var cursor uint64
	if last := r.Header.Get("Last-Event-ID"); last != "" {
		if v, perr := strconv.ParseUint(last, 10, 64); perr == nil {
			cursor = v
		}
	}
	for {
		// take the wait channel BEFORE draining: an event emitted
		// between Since and Wait would otherwise be missed until the
		// next one arrives
		wait := ring.Wait()
		evs, next := ring.Since(cursor)
		cursor = next
		for i, e := range evs {
			data, jerr := json.Marshal(e)
			if jerr != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n",
				next-uint64(len(evs)-1-i), e.Kind, data)
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if ring.Closed() {
			// drain anything emitted between Since and Close
			if evs, next = ring.Since(cursor); len(evs) == 0 {
				return
			}
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-wait:
		}
	}
}

// recording serves a finished job's flight-recorder capture: NDJSON by
// default, the gzipped wire form with ?gz=1 (the decoder auto-detects
// either). 404s distinguish an unknown job from a job that has no
// recording (not submitted with options.record, or not finished yet).
func (a *api) recording(w http.ResponseWriter, r *http.Request) {
	rec, err := a.s.Recording(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	if rec == nil {
		writeError(w, http.StatusNotFound, "no_recording",
			"job has no recording: submit with options.record and wait for it to finish")
		return
	}
	gz := r.URL.Query().Get("gz") == "1"
	if gz {
		w.Header().Set("Content-Type", "application/gzip")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", r.PathValue("id")+".ndjson.gz"))
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	_ = rec.Encode(w, gz)
}

func (a *api) certificate(w http.ResponseWriter, r *http.Request) {
	cert, err := a.s.Certificate(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	if cert == nil {
		writeError(w, http.StatusNotFound, "no_certificate",
			"job has no certificate: submit with options.certify and wait for it to finish")
		return
	}
	writeJSON(w, http.StatusOK, cert)
}

// spans serves the job's finished spans, oldest first. Pollable while
// the job runs: spans appear as they end, the request root last.
func (a *api) spans(w http.ResponseWriter, r *http.Request) {
	recs, err := a.s.Spans(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"spans": recs})
}

// blackbox serves the job's black-box dump: frozen at the anomaly when
// the box flushed (worker panic, deadline, certification failure,
// watchdog stall), otherwise the rolling tail of recent solve events.
func (a *api) blackbox(w http.ResponseWriter, r *http.Request) {
	d, err := a.s.BlackBox(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "not_found", err.Error())
		return
	}
	writeJSON(w, http.StatusOK, d)
}

// debugSolves serves a live snapshot of every in-flight search.
func (a *api) debugSolves(w http.ResponseWriter, r *http.Request) {
	solves := a.s.DebugSolves()
	if solves == nil {
		solves = []SolveDebug{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"solves": solves})
}

// version serves the build identity of the running binary.
func (a *api) version(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request", the closest fit for a solve cancelled by a disconnecting
// caller (the response is usually unread anyway).
const statusClientClosedRequest = 499

func (a *api) decodeRequest(w http.ResponseWriter, r *http.Request) (*Request, bool) {
	var req Request
	if !a.decodeJSON(w, r, "request", &req) {
		return nil, false
	}
	// adopt the caller's distributed-trace identity, if any (the header
	// is validated when the job's span collector is created)
	req.TraceParent = r.Header.Get("Traceparent")
	return &req, true
}

// removedOptions maps each option name removed from the wire form to
// its successor, which the "gone" 400 names for an old client.
var removedOptions = map[string]string{
	"parallelism":        "options.search.parallelism",
	"parallel_threshold": "options.search.threshold",
	"branch":             "options.search.branch",
	"fortet":             "options.linearization",
}

// decodeJSON decodes a request body under the configured size cap,
// rejecting unknown fields. Oversized bodies get the typed 413
// envelope; the cap also protects the connection (MaxBytesReader
// closes it when the limit trips, so a huge upload is not drained for
// keep-alive).
func (a *api) decodeJSON(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	if limit := a.s.cfg.MaxBodyBytes; limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Sprintf("decoding %s: body exceeds the %d-byte limit", what, mbe.Limit))
			return false
		}
		code, msg := "bad_request", fmt.Sprintf("decoding %s: %v", what, err)
		// encoding/json names an unknown field only in its message
		var name string
		if _, serr := fmt.Sscanf(err.Error(), "json: unknown field %q", &name); serr == nil && removedOptions[name] != "" {
			code, msg = "gone", fmt.Sprintf("decoding %s: option %q was removed; use %s", what, name, removedOptions[name])
		}
		writeError(w, http.StatusBadRequest, code, msg)
		return false
	}
	return true
}

// writeSubmitError maps submission failures: load shedding is a 429
// with a Retry-After header (the roadmap's backpressure contract — a
// full queue is a transient client-pacing problem, not a server
// fault), 503 is reserved for a closed service, and everything else
// is a 400 from request validation.
func writeSubmitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		writeShed(w, shed)
	case errors.Is(err, ErrQueueFull):
		// a bare sentinel from a Go caller's error chain; the service
		// itself always sheds with a *ShedError
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, ShedQueueFull, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "unavailable", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
	}
}

// writeShed renders a load-shed rejection: 429, the shed code as the
// envelope code, and Retry-After in whole seconds (rounded up — the
// header has one-second resolution and retrying early defeats the
// point).
func writeShed(w http.ResponseWriter, shed *ShedError) {
	secs := int64((shed.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeError(w, http.StatusTooManyRequests, shed.Code, shed.Error())
}

// errorEnvelope is the uniform error body of every endpoint.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
