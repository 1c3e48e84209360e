// Command tpload is the traffic harness for tpserve: a worker-pool
// load generator that reports client-observed throughput, latency
// percentiles, shed-rate and warm-hit accounting as one JSON document.
//
// Three modes:
//
//	-mode closed   W workers issue synchronous POST /v1/solve requests
//	               back to back (closed loop: a worker waits for its
//	               response before issuing the next). Every request is
//	               a distinct instance, so the pool solves real work;
//	               against a small -queue server the excess is shed and
//	               the 429 contract is validated on every rejection.
//	-mode open     requests fired at a fixed -rps as asynchronous
//	               POST /v1/jobs submissions regardless of completions
//	               (open loop), for probing admission behavior beyond
//	               the service's drain rate.
//	-mode compare  the batch/warm-chain benchmark: a neighboring-
//	               instance workload (one graph, a device-capacity
//	               ladder) is solved twice — individually cold, then as
//	               one POST /v1/batch warm chain — and the summed
//	               per-request solve times are compared. The speedup is
//	               the number the BENCH_trajectory.json series tracks.
//
// Every response is validated against the API contract: 2xx bodies
// must parse, 429s must carry a typed envelope code and a positive
// integral Retry-After. Violations count as malformed (a healthy
// server reports 0).
//
// Usage:
//
//	tpload -addr http://127.0.0.1:8080 -mode closed -requests 200 -workers 8
//	tpload -addr http://127.0.0.1:8080 -mode compare -requests 8 -trajectory BENCH_trajectory.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8080", "tpserve base URL")
		mode       = flag.String("mode", "closed", "closed | open | compare")
		requests   = flag.Int("requests", 100, "total requests (closed/compare) ")
		workers    = flag.Int("workers", 8, "concurrent client workers (closed mode)")
		rps        = flag.Float64("rps", 50, "request rate (open mode)")
		duration   = flag.Duration("duration", 5*time.Second, "run length (open mode)")
		out        = flag.String("out", "", "also write the JSON report to this file")
		trajectory = flag.String("trajectory", "", "append a dated distillation to this JSON series (e.g. BENCH_trajectory.json)")
	)
	flag.Parse()

	c := &client{base: strings.TrimRight(*addr, "/"), hc: &http.Client{Timeout: 5 * time.Minute}}
	before, err := c.stats()
	if err != nil {
		fail(fmt.Errorf("reading /v1/stats (is tpserve up at %s?): %w", *addr, err))
	}

	var rep report
	switch *mode {
	case "closed":
		rep, err = runClosed(c, *requests, *workers)
	case "open":
		rep, err = runOpen(c, *rps, *duration)
	case "compare":
		rep, err = runCompare(c, *requests)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fail(err)
	}
	rep.Mode = *mode

	after, err := c.stats()
	if err != nil {
		fail(err)
	}
	rep.Warm = int(after.Delta.Warm - before.Delta.Warm)
	rep.Reuse = int(after.Delta.Reuse - before.Delta.Reuse)
	rep.Cold = int((after.Delta.Solves - before.Delta.Solves)) - rep.Warm - rep.Reuse

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if *trajectory != "" {
		date := time.Now().Format("2006-01-02")
		load := experiments.LoadTrajectory{
			Mode: rep.Mode, Requests: rep.Requests, Workers: rep.Workers,
			RPS: rep.RPS, P50MS: rep.P50MS, P90MS: rep.P90MS, P99MS: rep.P99MS,
			Shed: rep.Shed, Malformed: rep.Malformed,
			Warm: rep.Warm, Reuse: rep.Reuse, Cold: rep.Cold,
			ColdMS: rep.ColdMS, BatchMS: rep.BatchMS, Speedup: rep.Speedup,
		}
		if err := experiments.AppendLoadTrajectory(*trajectory, date, runtime.GOMAXPROCS(0), load); err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "tpload: trajectory entry for %s appended to %s\n", date, *trajectory)
	}
	if rep.Malformed > 0 {
		fail(fmt.Errorf("%d malformed responses", rep.Malformed))
	}
}

// report is the JSON document tpload emits.
type report struct {
	Mode       string  `json:"mode"`
	Requests   int     `json:"requests"`
	Workers    int     `json:"workers"`
	DurationMS float64 `json:"duration_ms"`
	RPS        float64 `json:"rps"`
	// latency percentiles over accepted requests (client round trip in
	// closed/open mode; per-job solve time in compare mode)
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`

	Accepted  int `json:"accepted"`
	Shed      int `json:"shed"`
	Malformed int `json:"malformed"`

	// server-side delta-path accounting over the run
	Warm  int `json:"warm"`
	Reuse int `json:"reuse"`
	Cold  int `json:"cold"`

	// compare mode: summed per-request solve time, individually cold vs
	// batch warm-chained, over the same neighboring-instance workload
	ColdMS  float64 `json:"cold_ms,omitempty"`
	BatchMS float64 `json:"batch_ms,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
}

type client struct {
	base string
	hc   *http.Client
}

func (c *client) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// post issues one JSON POST and classifies the response against the
// API contract. ok is true for wantStatus responses with a parsable
// body, shed for well-formed 429s; anything else is malformed.
func (c *client) post(path string, body []byte, wantStatus int, outp any) (ok, shed, malformed bool) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, false, true
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, false, true
	}
	switch resp.StatusCode {
	case wantStatus:
		if outp != nil && json.Unmarshal(data, outp) != nil {
			return false, false, true
		}
		return true, false, false
	case http.StatusTooManyRequests:
		// the load-shedding contract: typed envelope code + positive
		// integral Retry-After
		var e struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &e) != nil || e.Error.Message == "" {
			return false, false, true
		}
		switch e.Error.Code {
		case "queue_full", "rate_limited":
		default:
			return false, false, true
		}
		secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || secs < 1 {
			return false, false, true
		}
		return false, true, false
	default:
		return false, false, true
	}
}

// workload builds request i of a neighboring-instance family: one
// graph (renamed per family so separate runs and phases never share
// cache identity) on an ascending α ladder — the same neighboring-
// instance shape the design-space sweep scans, where each step
// tightens the capacity row and a warm chain pays off.
func workload(family string, i int) *service.Request {
	g := strings.Replace(benchmarks.Diffeq().String(), "graph diffeq", "graph "+family, 1)
	return &service.Request{
		Graph: g,
		Allocation: map[string]int{
			"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1,
		},
		Device:  service.DeviceSpec{Alpha: 0.55 + 0.05*float64(i%10)},
		Options: service.SolveOptions{Options: core.Options{N: 2, L: 2, Tightened: true, DisableProbe: true}},
	}
}

func runClosed(c *client, requests, workers int) (report, error) {
	if workers < 1 {
		workers = 1
	}
	var (
		mu        sync.Mutex
		latencies []float64
		accepted  int
		shed      int
		malformed int
	)
	start := time.Now()
	nonce := strconv.FormatInt(start.UnixNano(), 36)
	var wg sync.WaitGroup
	next := make(chan int)
	go func() {
		for i := 0; i < requests; i++ {
			next <- i
		}
		close(next)
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				// a distinct family name per request: every solve is real
				// work, no dedup
				body, err := json.Marshal(workload(fmt.Sprintf("load%s-%d", nonce, i), i))
				if err != nil {
					continue
				}
				t0 := time.Now()
				var info service.JobInfo
				ok, sh, bad := c.post("/v1/solve", body, http.StatusOK, &info)
				dt := time.Since(t0)
				mu.Lock()
				switch {
				case ok:
					accepted++
					latencies = append(latencies, float64(dt)/1e6)
				case sh:
					shed++
				case bad:
					malformed++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep := report{
		Requests: requests, Workers: workers,
		DurationMS: float64(elapsed) / 1e6,
		RPS:        float64(requests) / elapsed.Seconds(),
		Accepted:   accepted, Shed: shed, Malformed: malformed,
	}
	rep.P50MS, rep.P90MS, rep.P99MS = percentiles(latencies)
	return rep, nil
}

func runOpen(c *client, rps float64, duration time.Duration) (report, error) {
	if rps <= 0 {
		return report{}, fmt.Errorf("open mode needs -rps > 0")
	}
	interval := time.Duration(float64(time.Second) / rps)
	var (
		mu        sync.Mutex
		latencies []float64
		accepted  int
		shed      int
		malformed int
		wg        sync.WaitGroup
	)
	start := time.Now()
	nonce := strconv.FormatInt(start.UnixNano(), 36)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	i := 0
	for time.Since(start) < duration {
		<-tick.C
		i++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := json.Marshal(workload(fmt.Sprintf("open%s-%d", nonce, i), i))
			if err != nil {
				return
			}
			t0 := time.Now()
			var info service.JobInfo
			ok, sh, bad := c.post("/v1/jobs", body, http.StatusAccepted, &info)
			dt := time.Since(t0)
			mu.Lock()
			switch {
			case ok:
				accepted++
				latencies = append(latencies, float64(dt)/1e6)
			case sh:
				shed++
			case bad:
				malformed++
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep := report{
		Requests: i, Workers: 1,
		DurationMS: float64(elapsed) / 1e6,
		RPS:        float64(i) / elapsed.Seconds(),
		Accepted:   accepted, Shed: shed, Malformed: malformed,
	}
	rep.P50MS, rep.P90MS, rep.P99MS = percentiles(latencies)
	return rep, nil
}

// runCompare solves one neighboring-instance workload twice: phase 1
// submits every instance individually (each solves cold — no batch, no
// shared lineage), phase 2 submits the same ladder under a fresh graph
// name as one batch, which the server chains through the delta engine
// in sweep order. The phases are renamed copies of one graph, so they
// are equally hard but share no cache identity; the comparison is the
// summed per-job solve time.
func runCompare(c *client, requests int) (report, error) {
	if requests < 2 {
		requests = 8
	}
	start := time.Now()
	// a per-run nonce in the family names: successive compare runs
	// against one server must not dedup against each other's cache
	nonce := strconv.FormatInt(start.UnixNano(), 36)

	// phase 1: individual cold submissions
	ids := make([]string, 0, requests)
	for i := 0; i < requests; i++ {
		body, err := json.Marshal(workload("loadcold"+nonce, i))
		if err != nil {
			return report{}, err
		}
		var info service.JobInfo
		ok, sh, _ := c.post("/v1/jobs", body, http.StatusAccepted, &info)
		if !ok {
			return report{}, fmt.Errorf("cold submission %d rejected (shed=%v); compare mode needs an uncontended server", i, sh)
		}
		ids = append(ids, info.ID)
	}
	var coldMS float64
	var latencies []float64
	for _, id := range ids {
		info, err := c.waitJob(id, 5*time.Minute)
		if err != nil {
			return report{}, err
		}
		if info.Status != "done" {
			return report{}, fmt.Errorf("cold job %s: %s (%s)", id, info.Status, info.Error)
		}
		coldMS += info.SolveMS
		latencies = append(latencies, info.SolveMS)
	}

	// phase 2: the same ladder as one batch warm chain
	items := make([]*service.Request, requests)
	for i := range items {
		items[i] = workload("loadbatch"+nonce, i)
	}
	body, err := json.Marshal(service.BatchRequest{Items: items})
	if err != nil {
		return report{}, err
	}
	var bi service.BatchInfo
	if ok, sh, _ := c.post("/v1/batch", body, http.StatusAccepted, &bi); !ok {
		return report{}, fmt.Errorf("batch submission rejected (shed=%v)", sh)
	}
	deadline := time.Now().Add(5 * time.Minute)
	for !bi.Done {
		if time.Now().After(deadline) {
			return report{}, fmt.Errorf("batch %s never finished", bi.ID)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := c.hc.Get(c.base + "/v1/batch/" + bi.ID)
		if err != nil {
			return report{}, err
		}
		err = json.NewDecoder(resp.Body).Decode(&bi)
		resp.Body.Close()
		if err != nil {
			return report{}, err
		}
	}
	var batchMS float64
	for _, ji := range bi.Jobs {
		if ji.Status != "done" {
			return report{}, fmt.Errorf("batch job %s: %s (%s)", ji.ID, ji.Status, ji.Error)
		}
		batchMS += ji.SolveMS
		latencies = append(latencies, ji.SolveMS)
	}

	elapsed := time.Since(start)
	rep := report{
		Requests: 2 * requests, Workers: 1,
		DurationMS: float64(elapsed) / 1e6,
		RPS:        float64(2*requests) / elapsed.Seconds(),
		Accepted:   2 * requests,
		ColdMS:     coldMS,
		BatchMS:    batchMS,
	}
	if batchMS > 0 {
		rep.Speedup = coldMS / batchMS
	}
	rep.P50MS, rep.P90MS, rep.P99MS = percentiles(latencies)
	return rep, nil
}

func (c *client) waitJob(id string, timeout time.Duration) (service.JobInfo, error) {
	deadline := time.Now().Add(timeout)
	for {
		var info service.JobInfo
		resp, err := c.hc.Get(c.base + "/v1/jobs/" + id)
		if err != nil {
			return info, err
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return info, err
		}
		if info.Status.Finished() {
			return info, nil
		}
		if time.Now().After(deadline) {
			return info, fmt.Errorf("job %s still %s after %v", id, info.Status, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func percentiles(ms []float64) (p50, p90, p99 float64) {
	if len(ms) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(ms)
	at := func(q float64) float64 {
		i := int(q * float64(len(ms)-1))
		return ms[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tpload:", err)
	os.Exit(1)
}
