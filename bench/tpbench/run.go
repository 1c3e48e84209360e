package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// metricDef names a metric, its unit and which direction is better; the
// lists below are the end_to_end and per_layer sections of
// BENCHMARK.json, in print order.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user sees, reported by untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"verdict_ms_geomean", "ms", "lower"},
	{"alloc_kb_per_instance", "KB", "lower"},
	{"heap_mb", "MB", "lower"},
}

// layers names the modules, and the parts of them, that self time is
// attributed to; layerOf maps span names onto them.
var layers = []string{
	"service.http", "service.job", "service.queue", "delta.dispatch",
	"core.build", "core.solve", "milp.search", "lp.solve", "exact.certify",
}

// lpPhases are the LP-internal trace.Profile phases; they subdivide the
// LP's own time, so their shares overlap lp.solve_pct.
var lpPhases = []trace.Phase{
	trace.PhasePricing, trace.PhaseRatio, trace.PhaseUpdate, trace.PhaseRefactorize,
	trace.PhaseFTRAN, trace.PhaseBTRAN, trace.PhaseFactorize,
}

func phaseMetric(p trace.Phase) string {
	return "lp." + strings.ReplaceAll(p.String(), "-", "_") + "_pct"
}

// perLayer are the metrics of single layers, reported by traced runs.
// Every workload reports every one: a layer the workload does not
// exercise reads 0. Times of a layer are shares (%) of end-to-end time,
// so that an idle layer reads 0% rather than a constant 0 ms.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + "_pct", "%", "lower"})
	}
	for _, p := range lpPhases {
		defs = append(defs, metricDef{phaseMetric(p), "%", "lower"})
	}
	return append(defs,
		metricDef{"core.build_ms", "ms", "lower"},
		metricDef{"core.solve_ms", "ms", "lower"},
		metricDef{"lp.root_pct", "%", "lower"},
		metricDef{"core.model_vars", "count", "lower"},
		metricDef{"core.model_rows", "count", "lower"},
		metricDef{"core.model_nnz", "count", "lower"},
		metricDef{"lp.root_pivots", "count", "lower"},
		metricDef{"milp.nodes", "count", "lower"},
		metricDef{"milp.pivots", "count", "lower"},
		metricDef{"service.shed", "count", "lower"},
		metricDef{"service.cache_hit_ratio", "ratio", "higher"},
		metricDef{"delta.warm_ratio", "ratio", "higher"},
		metricDef{"delta.reuse_ratio", "ratio", "higher"},
		metricDef{"trace.overhead_frac", "ratio", "lower"},
		metricDef{"client.outside_pct", "%", "lower"},
	)
}()

// layerOf names the layer a span's self time belongs to. Spans named
// tpbench.* are the benchmark's own; the rest are the program's.
func layerOf(span string) string {
	switch span {
	case "tpbench.request", "tpbench.ladder":
		return "service.http" // client-observed time outside the job
	case "request":
		return "service.job"
	case "queue":
		return "service.queue"
	case "solve":
		return "delta.dispatch"
	case "build":
		return "core.build"
	case "tpbench.instance", "tpbench.presolve", "tpbench.solve", "presolve":
		return "core.solve"
	case "root-lp":
		return "lp.solve"
	case "cuts", "dive", "search", "worker":
		return "milp.search"
	case "certify":
		return "exact.certify"
	}
	return ""
}

// workload is one named set of inputs. setup generates the inputs,
// starts what the workload needs and runs its fixed warm-up.
type workload struct {
	name string
	// tail is the percentile reported as latency_tail_ms: over requests,
	// the highest one a run leaves at least minBeyond samples beyond;
	// over instances, the slowest.
	tail  float64
	setup func(ctx context.Context, seed int64, exp *expected) (bench, error)
}

var workloads = []workload{
	{"suite", 100, setupSuite},
	{"paper", 100, setupPaper},
	{"service-cold", 99, setupServiceCold},
	{"service-warm", 99, setupServiceWarm},
}

// bench is a workload after set-up.
type bench interface {
	// measure runs the workload for d. A traced run (log non-nil)
	// records spans into log and reports per-layer metrics.
	measure(ctx context.Context, d time.Duration, log *spanLog) (*window, error)
	close() error
}

// sample is one correctly answered request or instance solve.
type sample struct {
	class string    // the instance's name, or the kind of request
	end   time.Time // when it completed
	ms    float64   // its latency
	n     int       // the instances it answered
}

// window is what one measured run observed.
type window struct {
	start   time.Time
	elapsed time.Duration
	samples []sample
	// answered counts instances answered correctly; batch items and
	// cache hits count once each.
	answered          int
	attempted, failed int
	failures          []string
	allocBytes        uint64
	// busy is the time clients spent inside requests, summed over
	// clients; the rest of clients×elapsed they spent outside them.
	busy    time.Duration
	clients int
	// deterministic marks a run whose requests of one class all repeat
	// one deterministic computation: the serial solves of one instance.
	deterministic bool
	// layer holds the per-layer metrics of a traced run.
	layer map[string]float64
	notes []string
}

// observe records a request of duration d that answered n instances
// correctly and has just completed.
func (w *window) observe(class string, d time.Duration, n int) {
	w.samples = append(w.samples, sample{class, time.Now(), float64(d) / float64(time.Millisecond), n})
	w.answered += n
	w.busy += d
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds another client's observations into w.
func (w *window) merge(o *window) {
	w.samples = append(w.samples, o.samples...)
	w.answered += o.answered
	w.attempted += o.attempted
	w.failed += o.failed
	w.failures = append(w.failures, o.failures...)[:min(len(w.failures)+len(o.failures), 5)]
	w.busy += o.busy
}

// result is one run of one workload.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	notes             []string
}

// runConfig is one run's settings.
type runConfig struct {
	seed     int64
	duration time.Duration
	// setups is how often the workload is set up; setup_s is the
	// median, and the last set-up is measured.
	setups int
	log    *spanLog // nil for an untraced run
}

// runOnce sets w up cfg.setups times, measures the last set-up and
// returns the end-to-end metrics, or the per-layer ones when traced.
func runOnce(ctx context.Context, w workload, cfg runConfig, exp *expected) (*result, error) {
	var setup []float64
	var b bench
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if b, err = w.setup(ctx, cfg.seed, exp); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	win, err := b.measure(ctx, cfg.duration, cfg.log)
	if err == nil && len(win.samples) == 0 {
		err = fmt.Errorf("no request completed in %v", cfg.duration)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res := resultOf(win, w.tail, cfg.log != nil)
	if cfg.log == nil {
		_, res.metrics["setup_s"], _ = quartiles(setup)
		// The heap is read while the workload still holds its caches and
		// history, and after the run's own samples are released.
		win = nil
		runtime.GC()
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(live)
		res.metrics["heap_mb"] = float64(live[0].Value.Uint64()) / (1 << 20)
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// resultOf turns a run's observations into its metrics: the per-layer
// ones of a traced run, or the end-to-end ones but setup_s and heap_mb.
func resultOf(win *window, tail float64, traced bool) *result {
	res := &result{attempted: win.attempted, failed: win.failed, failures: win.failures, notes: win.notes}
	outside := 100 * (1 - win.busy.Seconds()/(float64(win.clients)*win.elapsed.Seconds()))
	res.notes = append(res.notes, fmt.Sprintf("%d requests, %d instances answered by %d client(s) in %.2f s; clients spent %.1f%% of their time outside requests",
		len(win.samples), win.answered, win.clients, win.elapsed.Seconds(), outside))
	if traced {
		res.metrics = win.layer
		res.metrics["client.outside_pct"] = outside
		return res
	}

	// lat holds the latencies the percentiles are taken over, and
	// perClass one typical latency per request class.
	var lat, perClass []float64
	var throughput float64
	if win.deterministic {
		// Every solve of an instance repeats the same computation, so its
		// slower solves measure interference from outside the program.
		// Each instance counts once, at its fastest solve, and throughput
		// is that of a pass at those times.
		total := 0.0
		for _, xs := range byClass(win.samples) {
			best := slices.Min(xs)
			perClass = append(perClass, best)
			total += best
		}
		lat, throughput = perClass, float64(len(perClass))/(total/1000)
		res.notes = append(res.notes, fmt.Sprintf("latencies are each instance's fastest of about %d solves", len(win.samples)/len(perClass)))
	} else {
		kept, span := fasterHalf(win.samples, win.start, win.elapsed)
		answered := 0
		for _, s := range kept {
			lat = append(lat, s.ms)
			answered += s.n
		}
		for _, xs := range byClass(kept) {
			perClass = append(perClass, percentile(xs, 50))
		}
		throughput = float64(answered) / span.Seconds()
		res.notes = append(res.notes, fmt.Sprintf("statistics over the %d requests of the faster half of the run's %v windows", len(kept), trimWindow))
		if n := beyond(len(lat), tail); n < minBeyond {
			res.notes = append(res.notes, fmt.Sprintf("warning: only %d samples beyond p%g; latency_tail_ms is not resolved", n, tail))
		}
	}
	res.metrics = map[string]float64{
		"throughput_per_s":      throughput,
		"latency_p50_ms":        percentile(lat, 50),
		"latency_tail_ms":       percentile(lat, tail),
		"verdict_ms_geomean":    geomean(perClass),
		"alloc_kb_per_instance": float64(win.allocBytes) / 1024 / float64(max(win.answered, 1)),
	}
	return res
}

// byClass groups the samples' latencies by class.
func byClass(samples []sample) map[string][]float64 {
	m := map[string][]float64{}
	for _, s := range samples {
		m[s.class] = append(m[s.class], s.ms)
	}
	return m
}

// trimWindow is the length of the windows fasterHalf ranks.
const trimWindow = 2 * time.Second

// fasterHalf keeps the samples that completed in the faster half of the
// run's whole trimWindow windows, ranked by instances answered, and
// returns them with the time those windows span. On a shared host,
// interference from outside the program comes in episodes of seconds,
// while the service's own recurring costs, its GC cycles and queueing,
// fall in every window. A run shorter than two windows keeps every
// sample.
func fasterHalf(samples []sample, start time.Time, elapsed time.Duration) ([]sample, time.Duration) {
	nw := int(elapsed / trimWindow)
	if nw < 2 {
		return samples, elapsed
	}
	answered := make([]int, nw)
	for _, s := range samples {
		if i := int(s.end.Sub(start) / trimWindow); i < nw {
			answered[i] += s.n
		}
	}
	rank := make([]int, nw)
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool { return answered[rank[a]] > answered[rank[b]] })
	keep := make([]bool, nw)
	for _, i := range rank[:(nw+1)/2] {
		keep[i] = true
	}
	var kept []sample
	for _, s := range samples {
		if i := int(s.end.Sub(start) / trimWindow); i < nw && keep[i] {
			kept = append(kept, s)
		}
	}
	return kept, time.Duration((nw+1)/2) * trimWindow
}

// layerSums accumulates the self time of traced requests by layer.
type layerSums struct {
	self   map[string]float64   // ms by layer, summed over requests
	perReq map[string][]float64 // ms by layer, one entry per request
	e2e    float64              // ms, summed request durations
	n      int
}

func newLayerSums() *layerSums {
	return &layerSums{self: map[string]float64{}, perReq: map[string][]float64{}}
}

// add attributes the spans of one request (one trace) to layers and
// returns each span's self time. adjust, when set, may move self time
// between layers before it is recorded.
func (ls *layerSums) add(spans []span, adjust func(self []float64, by map[string]float64)) {
	self := selfTimes(spans)
	by := map[string]float64{}
	for i, s := range spans {
		if !hasID(spans, s.Parent) {
			ls.e2e += s.End - s.Start
		}
		by[layerOf(s.Name)] += self[i]
	}
	if adjust != nil {
		adjust(self, by)
	}
	for _, l := range layers {
		ls.self[l] += by[l]
		ls.perReq[l] = append(ls.perReq[l], by[l])
	}
	ls.n++
}

func hasID(spans []span, id string) bool {
	for _, s := range spans {
		if s.ID == id {
			return true
		}
	}
	return false
}

// report fills the layer shares into m and returns the attribution
// table: each layer's p50 self time over requests and its share of
// end-to-end time, with the share the named layers cover.
func (ls *layerSums) report(m map[string]float64) []string {
	lines := []string{fmt.Sprintf("%-16s %12s %9s   (%d traced requests)", "layer", "p50 self ms", "share", ls.n)}
	covered := 0.0
	for _, l := range layers {
		share := 0.0
		if ls.e2e > 0 {
			share = 100 * ls.self[l] / ls.e2e
		}
		m[l+"_pct"] = share
		covered += share
		lines = append(lines, fmt.Sprintf("%-16s %12.4f %8.2f%%", l, percentile(ls.perReq[l], 50), share))
	}
	return append(lines, fmt.Sprintf("named layers cover %.2f%% of end-to-end time", covered))
}
