// Command tpserve exposes the temporal-partitioning solver as a JSON
// HTTP service: a bounded worker pool of branch-and-bound solvers with
// cooperative cancellation, request deduplication and a cache of
// completed results that also serves warm starts.
//
// Endpoints (see service.NewHandler):
//
//	POST   /v1/solve            synchronous solve (client disconnect cancels)
//	POST   /v1/jobs             asynchronous submit
//	POST   /v1/batch            submit up to -max-batch solves at once
//	                            (neighboring instances warm-chain)
//	GET    /v1/batch/{id}       batch status
//	POST   /v1/sweep            (N, L, Ms, C, α) grid scan of at most
//	                            -max-batch points, run as one batch
//	GET    /v1/jobs/{id}        job status and result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events live solver progress (Server-Sent Events)
//	GET    /v1/jobs/{id}/spans  span tree of the job (finished spans)
//	GET    /v1/jobs/{id}/blackbox
//	                            black-box anomaly capture / live tail
//	GET    /v1/debug/solves     live snapshot of every in-flight search
//	GET    /v1/version          build identity
//	GET    /v1/metrics          Prometheus text metrics
//	GET    /v1/stats            service metrics snapshot (JSON)
//	GET    /v1/healthz          liveness
//
// With -pprof, the standard net/http/pprof profiling handlers are
// mounted under /debug/pprof/ on the same listener. With -spans FILE,
// every finished span of every job is appended to FILE as NDJSON
// (tpreplay -spans pretty-prints it). With -blackbox DIR, each job
// whose black box flushes on an anomaly writes DIR/<job>.blackbox.json.
//
// Usage:
//
//	tpserve -addr :8080 -workers 4 -timeout 60s -stall-window 30s -pprof
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "solver goroutines (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "queued-job limit (0 = default)")
		cache    = flag.Int("cache", 0, "result-cache entries (0 = default 256; negative disables exact hits and warm bases alike)")
		timeout  = flag.Duration("timeout", 60*time.Second, "default per-solve time limit")
		parallel = flag.Int("parallel", 0, "branch-and-bound workers per solve (0 = serial)")
		stall    = flag.Duration("stall-window", 0, "gap-stall watchdog window (0 disables)")
		spans    = flag.String("spans", "", "append finished spans to this NDJSON file")
		blackbox = flag.String("blackbox", "", "write black-box anomaly dumps into this directory")
		pprofOn  = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")

		rate     = flag.Float64("rate", 0, "admitted submissions per second (token bucket; 0 disables)")
		burst    = flag.Int("burst", 0, "admission token-bucket depth (0 = ceil(rate))")
		maxBody  = flag.Int64("max-body", 0, "request-body byte cap (0 = 8 MiB default, -1 disables)")
		maxBatch = flag.Int("max-batch", 0, "items per POST /v1/batch and points per POST /v1/sweep (0 = default 64)")
	)
	flag.Parse()

	cfg := service.Config{
		Workers:            *workers,
		QueueLimit:         *queue,
		CacheSize:          *cache,
		DefaultTimeout:     *timeout,
		DefaultParallelism: *parallel,
		StallWindow:        *stall,
		Admission:          service.Admission{Rate: *rate, Burst: *burst},
		MaxBodyBytes:       *maxBody,
		MaxBatch:           *maxBatch,
	}
	if *spans != "" {
		f, err := os.OpenFile(*spans, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(fmt.Errorf("opening span sink: %w", err))
		}
		defer f.Close()
		var mu sync.Mutex
		enc := json.NewEncoder(f)
		cfg.SpanSink = func(rec trace.SpanRec) {
			mu.Lock()
			_ = enc.Encode(rec)
			mu.Unlock()
		}
		log.Printf("tpserve: streaming spans to %s", *spans)
	}
	if *blackbox != "" {
		if err := os.MkdirAll(*blackbox, 0o755); err != nil {
			fail(fmt.Errorf("creating blackbox dir: %w", err))
		}
		dir := *blackbox
		cfg.OnBlackBoxFlush = func(jobID string, d trace.BBDump) {
			path := filepath.Join(dir, jobID+".blackbox.json")
			data, err := json.MarshalIndent(d, "", "  ")
			if err == nil {
				err = os.WriteFile(path, data, 0o644)
			}
			if err != nil {
				log.Printf("tpserve: writing black box for %s: %v", jobID, err)
				return
			}
			log.Printf("tpserve: black box of %s flushed (%s) -> %s", jobID, d.Reason, path)
		}
		log.Printf("tpserve: black-box dumps to %s", dir)
	}

	svc := service.New(cfg)

	handler := service.NewHandler(svc)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("tpserve: pprof enabled at /debug/pprof/")
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("tpserve: listening on %s (%d workers, default timeout %s)",
		*addr, svc.Workers(), *timeout)

	select {
	case err := <-errc:
		fail(err)
	case <-ctx.Done():
	}

	// Stop accepting connections, then drain the queue: give in-flight
	// solves a grace period before cancelling them cooperatively.
	log.Printf("tpserve: shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil {
		log.Printf("tpserve: http shutdown: %v", err)
	}
	if err := svc.Close(shctx); err != nil {
		log.Printf("tpserve: service drain: %v", err)
	}
}

func fail(err error) {
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "tpserve:", err)
		os.Exit(1)
	}
}
