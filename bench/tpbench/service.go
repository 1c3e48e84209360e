package main

// The service workloads: the solve service in process — service.New
// with two workers behind service.NewHandler on a loopback listener —
// driven over HTTP by closed-loop clients, each of which sends its next
// request only after the previous one completed.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/library"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/trace"
)

const (
	// maxClients caps the load goroutines, and the keep-alive
	// connections they share, at the two cores the benchmark was sized
	// on; fewer cores get fewer clients.
	maxClients = 2
	// sampleEvery is how often a traced run traces a client's request.
	sampleEvery = 10
	// warmupCold and warmupLadders are the fixed warm-up work per client,
	// about half a second each.
	warmupCold    = 40
	warmupLadders = 6
	// history caps the service's finished-job history below the default
	// 4096, which holds about 200 KB per job: a run passes the cap, so
	// heap_mb is the retained heap at steady state rather than a count
	// of the requests that happened to fit in the run, and the live heap
	// stays near 100–135 MB.
	history = 512
)

// families are the graphs the service workloads rename into fresh
// families, with their exploration sets; three requests in four are
// diffeq.
var families = map[string]map[string]int{
	"diffeq": {"add16": 1, "sub16": 1, "mul16": 2, "cmp16": 1},
	"ewf":    {"add16": 1, "mul16": 2},
}

// ladderGraphs are the families whose α ladders expected.json records.
var ladderGraphs = []string{"diffeq", "ewf"}

// family is one graph's template: its text after the name line and its
// exploration set, and the parsed graph and allocation that answers are
// verified against.
type family struct {
	rest   string
	counts map[string]int
	g      *graph.Graph
	alloc  *library.Allocation
}

func loadFamilies() (map[string]*family, error) {
	fams := map[string]*family{}
	for name, counts := range families {
		text := benchmarks.All()[name]().String()
		_, rest, _ := strings.Cut(text, "\n")
		g, err := graph.ParseString(text)
		if err != nil {
			return nil, err
		}
		alloc, err := library.NewAllocation(library.DefaultLibrary(), counts)
		if err != nil {
			return nil, err
		}
		fams[name] = &family{rest: rest, counts: counts, g: g, alloc: alloc}
	}
	return fams, nil
}

// request is the family renamed to name at one α. Certification is on
// for cold solves and off for ladders, where it would keep the delta
// engine from reusing conclusions.
func (f *family) request(name string, alpha float64, certify bool) *service.Request {
	return &service.Request{
		Graph:      "graph " + name + "\n" + f.rest,
		Allocation: f.counts,
		Device:     service.DeviceSpec{Alpha: alpha},
		Options: service.SolveOptions{Options: core.Options{
			N: 2, L: 2, Tightened: true, DisableProbe: true, Certify: certify,
		}},
	}
}

type serviceBench struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	hc     *http.Client
	exp    *expected
	fams   map[string]*family
	// rng draws each client's seed, so every client of every phase has
	// its own inputs and family names.
	rng *rand.Rand
	// warm selects service-warm: batch ladders and cache hits instead of
	// distinct cold solves.
	warm bool
}

func setupServiceCold(ctx context.Context, seed int64, exp *expected) (bench, error) {
	return startService(ctx, seed, exp, false)
}

func setupServiceWarm(ctx context.Context, seed int64, exp *expected) (bench, error) {
	return startService(ctx, seed, exp, true)
}

// startService generates the family templates, starts the service,
// waits until /v1/healthz answers and runs the fixed warm-up.
func startService(ctx context.Context, seed int64, exp *expected, warm bool) (*serviceBench, error) {
	fams, err := loadFamilies()
	if err != nil {
		return nil, err
	}
	b := &serviceBench{exp: exp, fams: fams, rng: rand.New(rand.NewSource(seed)), warm: warm}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.svc = service.New(service.Config{Workers: 2, History: history})
	b.srv = &http.Server{Handler: service.NewHandler(b.svc)}
	b.served = make(chan error, 1)
	go func() { b.served <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	b.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxClients, MaxIdleConnsPerHost: maxClients}}

	if err := (&client{b: b}).call(ctx, http.MethodGet, "/v1/healthz", nil, "", nil); err != nil {
		b.close()
		return nil, err
	}
	var wg sync.WaitGroup
	clients := b.newClients("w", nil)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if warm {
				for i := 0; i < warmupLadders; i++ {
					c.ladder(ctx)
				}
			} else {
				for i := 0; i < warmupCold; i++ {
					c.cold(ctx)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, c := range clients {
		if c.win.failed > 0 {
			b.close()
			return nil, fmt.Errorf("warm-up: %s", c.win.failures[0])
		}
	}
	return b, nil
}

func (b *serviceBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := b.srv.Shutdown(ctx)
	if serr := <-b.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	b.hc.CloseIdleConnections()
	return errors.Join(err, b.svc.Close(ctx))
}

// measure runs every client until d has passed and reads the service's
// counters from /v1/stats before and after.
func (b *serviceBench) measure(ctx context.Context, d time.Duration, log *spanLog) (*window, error) {
	clients := b.newClients("m", log)
	stats := &client{b: b}
	var before, after service.Stats
	if err := stats.call(ctx, http.MethodGet, "/v1/stats", nil, "", &before); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				if b.warm {
					c.ladder(ctx)
				} else {
					c.cold(ctx)
				}
			}
		}(c)
	}
	wg.Wait()
	w := &window{start: start, elapsed: time.Since(start), clients: len(clients)}
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := stats.call(ctx, http.MethodGet, "/v1/stats", nil, "", &after); err != nil {
		return nil, err
	}
	layers, st := newLayerSums(), spanStats{}
	var traced, plain []float64
	shed := 0
	for _, c := range clients {
		w.merge(&c.win)
		traced, plain = append(traced, c.traced...), append(plain, c.plain...)
		shed += c.shed
		if log != nil {
			for _, spans := range c.sampled {
				layers.add(spans, nil)
				st.add(spans)
			}
		}
	}
	if log == nil {
		return w, nil
	}
	m := map[string]float64{}
	w.notes = append(w.notes, layers.report(m)...)
	st.fill(m, layers.e2e)
	delta := func(a, b uint64) float64 { return float64(b - a) }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	solves := delta(before.Delta.Solves, after.Delta.Solves)
	hits := delta(before.CacheHits, after.CacheHits)
	m["milp.nodes"] = ratio(delta(before.TotalNodes, after.TotalNodes), solves)
	m["milp.pivots"] = ratio(delta(before.TotalLPIterations, after.TotalLPIterations), solves)
	m["service.shed"] = float64(shed)
	m["service.cache_hit_ratio"] = ratio(hits, hits+delta(before.CacheMisses, after.CacheMisses))
	m["delta.warm_ratio"] = ratio(delta(before.Delta.Warm, after.Delta.Warm), solves)
	m["delta.reuse_ratio"] = ratio(delta(before.Delta.Reuse, after.Delta.Reuse), solves)
	// The service profiles every fresh solve into one aggregate, so the
	// LP phases are shares of all request time, not of sampled requests.
	for _, p := range lpPhases {
		m[phaseMetric(p)] = ratio(100*(phaseMS(after, p)-phaseMS(before, p)), float64(w.busy)/1e6)
	}
	m["trace.overhead_frac"] = ratio(percentile(traced, 50), percentile(plain, 50)) - 1
	w.layer = m
	return w, nil
}

func phaseMS(st service.Stats, p trace.Phase) float64 {
	for _, ph := range st.Phases {
		if ph.Name == p.String() {
			return msOf(ph.SumNS)
		}
	}
	return 0
}

// client is one closed-loop load generator with its own seeded inputs.
type client struct {
	b      *serviceBench
	rng    *rand.Rand
	prefix string
	n      int // families made
	reqs   int // requests sent
	win    window
	shed   int
	// A traced client traces every sampleEvery-th request and keeps its
	// spans; traced and plain hold the latencies (ms) of the requests
	// with and without tracing.
	log           *spanLog
	sampled       [][]span
	traced, plain []float64
}

// newClients makes the clients of one phase ("w" warm-up, "m"
// measurement, ...). Family names carry the phase, the client and a
// seeded nonce, so no two clients and no two phases share an instance.
func (b *serviceBench) newClients(phase string, log *spanLog) []*client {
	cs := make([]*client, min(maxClients, runtime.NumCPU()))
	for i := range cs {
		rng := rand.New(rand.NewSource(b.rng.Int63()))
		cs[i] = &client{b: b, rng: rng, log: log,
			prefix: fmt.Sprintf("tpb_%s%d_%08x", phase, i, rng.Uint32())}
	}
	return cs
}

// nextFamily names a fresh family and draws its graph.
func (c *client) nextFamily() (string, string) {
	base := "diffeq"
	if c.rng.Intn(4) == 0 {
		base = "ewf"
	}
	c.n++
	return base, fmt.Sprintf("%s_%d", c.prefix, c.n)
}

// cold sends one distinct, certified instance to POST /v1/solve: a
// fresh family at a seeded α, so the result cache always misses.
func (c *client) cold(ctx context.Context) {
	base, name := c.nextFamily()
	a := alphas[c.rng.Intn(len(alphas))]
	body, _ := json.Marshal(c.b.fams[base].request(name, a, true)) // see ladder
	c.win.attempted++
	var info service.JobInfo
	d, ct, err := c.timed("tpbench.request", func(tp string) error {
		return c.call(ctx, http.MethodPost, "/v1/solve", body, tp, &info)
	})
	if err == nil {
		err = c.b.check(info, base, a)
	}
	if err == nil {
		var cert struct {
			Valid bool `json:"valid"`
		}
		err = c.call(ctx, http.MethodGet, "/v1/jobs/"+info.ID+"/certificate", nil, "", &cert)
		if err == nil && !cert.Valid {
			err = fmt.Errorf("job %s: invalid certificate", info.ID)
		}
	}
	if err == nil {
		err = c.keepSpans(ctx, ct, info)
	}
	if err != nil {
		c.win.fail("%s α=%g: %v", name, a, err)
		return
	}
	c.win.observe(base, d, 1)
}

// ladder submits the α ladder of a fresh family as one POST /v1/batch,
// which the service runs as one warm chain, and waits for the chain's
// tail job on its event stream. It then requests the same points one
// by one from POST /v1/solve, each of which the result cache answers.
func (c *client) ladder(ctx context.Context) {
	base, name := c.nextFamily()
	items := make([]*service.Request, len(alphas))
	bodies := make([][]byte, len(alphas))
	for i, a := range alphas {
		items[i] = c.b.fams[base].request(name, a, false)
		// a Request of plain values and named enums always encodes
		bodies[i], _ = json.Marshal(items[i])
	}
	batch, _ := json.Marshal(service.BatchRequest{Items: items})
	c.win.attempted += len(alphas)
	var bi service.BatchInfo
	d, ct, err := c.timed("tpbench.ladder", func(tp string) error {
		if err := c.call(ctx, http.MethodPost, "/v1/batch", batch, tp, &bi); err != nil {
			return err
		}
		if len(bi.Jobs) != len(alphas) {
			return fmt.Errorf("batch %s has %d jobs, want %d", bi.ID, len(bi.Jobs), len(alphas))
		}
		// the chain runs in ascending α, the items' order, so the last
		// item is its tail; the stream ends when that job is terminal
		return c.call(ctx, http.MethodGet, "/v1/jobs/"+bi.Jobs[len(bi.Jobs)-1].ID+"/events", nil, "", nil)
	})
	if err == nil {
		err = c.call(ctx, http.MethodGet, "/v1/batch/"+bi.ID, nil, "", &bi)
	}
	if err == nil && !bi.Done {
		err = fmt.Errorf("batch %s unfinished after its tail job", bi.ID)
	}
	for i := 0; err == nil && i < len(alphas); i++ {
		err = c.b.check(bi.Jobs[i], base, alphas[i])
	}
	if err == nil {
		err = c.keepSpans(ctx, ct, bi.Jobs...)
	}
	if err != nil {
		for range alphas {
			c.win.fail("%s ladder: %v", name, err)
		}
		return
	}
	c.win.observe("ladder", d, len(alphas))

	for i, a := range alphas {
		c.win.attempted++
		var info service.JobInfo
		d, ct, err := c.timed("tpbench.request", func(tp string) error {
			return c.call(ctx, http.MethodPost, "/v1/solve", bodies[i], tp, &info)
		})
		if err == nil {
			err = c.b.check(info, base, a)
		}
		if err == nil {
			err = c.keepSpans(ctx, ct, info)
		}
		if err != nil {
			c.win.fail("%s α=%g: %v", name, a, err)
			continue
		}
		c.win.observe("hit", d, 1)
	}
}

// clientTrace is the client side of a traced request.
type clientTrace struct {
	base time.Time // the trace's time origin
	sc   *trace.Spans
}

// timed times one request. On a traced client every sampleEvery-th
// request gets a client span named name, and do receives the
// traceparent header that parents the job's server spans onto it.
func (c *client) timed(name string, do func(tp string) error) (time.Duration, *clientTrace, error) {
	var ct *clientTrace
	var root *trace.Span
	tp := ""
	if c.log != nil && c.reqs%sampleEvery == 0 {
		ct = &clientTrace{base: time.Now()}
		ct.sc = trace.NewSpans("")
		root = ct.sc.Root(name)
		tp = ct.sc.Traceparent(root)
	}
	c.reqs++
	t0 := time.Now()
	err := do(tp)
	d := time.Since(t0)
	root.End()
	if c.log != nil {
		ms := float64(d) / float64(time.Millisecond)
		if ct != nil {
			c.traced = append(c.traced, ms)
		} else {
			c.plain = append(c.plain, ms)
		}
	}
	return d, ct, err
}

// keepSpans fetches the server spans of a traced request's jobs, after
// the request completed, and keeps them with the client span.
func (c *client) keepSpans(ctx context.Context, ct *clientTrace, jobs ...service.JobInfo) error {
	if ct == nil {
		return nil
	}
	spans := c.log.add(ct.base, ct.sc.Snapshot())
	for _, j := range jobs {
		var body struct {
			Spans []trace.SpanRec `json:"spans"`
		}
		if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+j.ID+"/spans", nil, "", &body); err != nil {
			return err
		}
		spans = append(spans, c.log.add(j.SubmittedAt, body.Spans)...)
	}
	c.sampled = append(c.sampled, spans)
	return nil
}

// call sends one request and decodes a 2xx JSON reply into out, or
// reads the reply to its end when out is nil. Anything else is an
// error; a 429 also counts as shed.
func (c *client) call(ctx context.Context, method, path string, body []byte, tp string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.b.url+path, rd)
	if err != nil {
		return err
	}
	if tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := c.b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusTooManyRequests {
			c.shed++
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("%s %s: malformed reply: %w", method, path, err)
		}
	}
	// drain the rest so the connection is reused
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// check compares a finished job with the expected verdict of its
// ladder point and re-checks its solution.
func (b *serviceBench) check(info service.JobInfo, base string, alpha float64) error {
	if info.Status != service.StatusDone || info.Result == nil {
		return fmt.Errorf("job %s ended %s %s", info.ID, info.Status, info.Error)
	}
	o := info.Result
	var sol *partition.Solution
	if o.TaskPartition != nil {
		sol = &partition.Solution{N: o.N, TaskPartition: o.TaskPartition, OpStep: o.OpStep, OpUnit: o.OpUnit, Comm: o.Comm}
	}
	dev := library.XC4010()
	dev.Alpha = alpha
	f := b.fams[base]
	if err := b.exp.Ladder[base][alphaKey(alpha)].check(answer{o.Feasible, o.Optimal, sol}, f.g, f.alloc, dev, 2); err != nil {
		return fmt.Errorf("job %s: %w", info.ID, err)
	}
	return nil
}
