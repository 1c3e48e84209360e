package main

// The in-process workloads: passes over a fixed instance set, each
// instance built with core.Build, presolved with Model.ApplyPresolve
// and solved with Model.SolveContext, serially on one goroutine.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/library"
	"repro/internal/randgraph"
	"repro/internal/trace"
)

// solveLimit bounds each solve so that a run always ends; every
// instance closes far inside it.
const solveLimit = 30 * time.Second

type instanceCase struct {
	name string
	inst core.Instance
	opt  core.Options
	want verdict
}

// suiteNames lists the instances of the suite workload.
func suiteNames() ([]string, error) {
	entries, err := experiments.MILPBench()
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names, err
}

// setupSuite takes the five experiments.MILPBench instances as the
// suite defines them: probe off, serial search, no certification.
func setupSuite(ctx context.Context, seed int64, exp *expected) (bench, error) {
	entries, err := experiments.MILPBench()
	if err != nil {
		return nil, err
	}
	var cases []instanceCase
	for _, e := range entries {
		opt := e.Opt
		opt.TimeLimit = solveLimit
		cases = append(cases, instanceCase{e.Name, e.Inst, opt, exp.Suite[e.Name]})
	}
	return newInstanceBench(ctx, cases, seed)
}

// paperRows are the rows of the paper's Tables 3 and 4 that close
// within the solve limit under the paper's options (tightened model,
// paper branching, exact sweep, probe on).
var paperRows = []string{
	"T3 g1 N3 L0", "T3 g1 N2 L4", "T4 g4 N2 L1", "T4 g4 N3 L0",
	"T4 g5 N3 L0", "T4 g5 N2 L2", "T4 g6 N3 L0", "T4 g6 N2 L1",
}

func setupPaper(ctx context.Context, seed int64, exp *expected) (bench, error) {
	rows := map[string]experiments.Row{}
	for _, r := range append(experiments.Table3(), experiments.Table4()...) {
		rows[r.Label] = r
	}
	var cases []instanceCase
	for _, label := range paperRows {
		r, ok := rows[label]
		if !ok {
			return nil, fmt.Errorf("no paper row %q", label)
		}
		g, err := randgraph.Paper(r.GraphNum)
		if err != nil {
			return nil, err
		}
		alloc, err := library.PaperAllocation(library.DefaultLibrary(), r.A, r.M, r.S)
		if err != nil {
			return nil, err
		}
		opt := r.Opt
		opt.N, opt.L, opt.TimeLimit = r.N, r.L, solveLimit
		inst := core.Instance{Graph: g, Alloc: alloc, Device: experiments.Device()}
		cases = append(cases, instanceCase{label, inst, opt, exp.Paper[label]})
	}
	return newInstanceBench(ctx, cases, seed)
}

// instanceBench runs passes over its cases in a seeded order.
type instanceBench struct {
	cases []instanceCase
	rng   *rand.Rand
	// solves, nodes and pivots count the search effort of a run.
	solves, nodes, pivots int
}

// newInstanceBench runs the fixed warm-up: one pass over every case.
func newInstanceBench(ctx context.Context, cases []instanceCase, seed int64) (*instanceBench, error) {
	b := &instanceBench{cases: cases, rng: rand.New(rand.NewSource(seed))}
	w := &window{}
	b.pass(ctx, w, nil)
	if w.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", w.failures[0])
	}
	return b, nil
}

func (b *instanceBench) close() error { return nil }

// measure runs whole passes until d has passed. A traced run traces
// every other pass, at least one, so the passes between give the
// untraced time the tracing overhead is judged against.
func (b *instanceBench) measure(ctx context.Context, d time.Duration, log *spanLog) (*window, error) {
	w := &window{clients: 1, deterministic: true}
	b.solves, b.nodes, b.pivots = 0, 0, 0
	var tr *instanceTrace
	if log != nil {
		tr = &instanceTrace{log: log, layers: newLayerSums()}
	}
	var traced, plain []float64
	start := time.Now()
	for pass := 0; time.Since(start) < d || tr != nil && len(traced) == 0; pass++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if tr != nil && pass%2 == 1 {
			traced = append(traced, b.pass(ctx, w, tr).Seconds())
		} else {
			plain = append(plain, b.pass(ctx, w, nil).Seconds())
		}
	}
	w.elapsed = time.Since(start)
	if tr == nil {
		return w, nil
	}
	m := map[string]float64{}
	w.notes = append(w.notes, tr.layers.report(m)...)
	for _, p := range lpPhases {
		m[phaseMetric(p)] = 100 * msOf(tr.phases[p]) / tr.layers.e2e
	}
	tr.stats.fill(m, tr.layers.e2e)
	m["milp.nodes"] = float64(b.nodes) / float64(b.solves)
	m["milp.pivots"] = float64(b.pivots) / float64(b.solves)
	m["trace.overhead_frac"] = percentile(traced, 50)/percentile(plain, 50) - 1
	w.layer = m
	return w, nil
}

// pass solves every case once, in a fresh seeded order, and returns the
// time spent inside the solves. Answers are checked, and the traced
// extras run, outside the solves and outside the allocation count.
func (b *instanceBench) pass(ctx context.Context, w *window, tr *instanceTrace) time.Duration {
	order := b.rng.Perm(len(b.cases))
	type solved struct {
		res *core.Result
		d   time.Duration
		err error
	}
	out := make([]solved, len(order))
	var before, after runtime.MemStats
	var total time.Duration
	runtime.ReadMemStats(&before)
	for k, i := range order {
		s := &out[k]
		if tr == nil {
			s.res, s.d, s.err = b.cases[i].solve(ctx, nil, nil)
		} else {
			s.res, s.d, s.err = tr.solve(ctx, &b.cases[i])
		}
		total += s.d
	}
	runtime.ReadMemStats(&after)
	w.allocBytes += after.TotalAlloc - before.TotalAlloc
	for k, i := range order {
		c, s := &b.cases[i], out[k]
		w.attempted++
		if s.err == nil {
			s.err = c.want.check(answer{s.res.Feasible, s.res.Optimal, s.res.Solution},
				c.inst.Graph, c.inst.Alloc, c.inst.Device, c.opt.L)
		}
		if s.err != nil {
			w.fail("%s: %v", c.name, s.err)
			continue
		}
		w.observe(c.name, s.d, 1)
		b.solves++
		b.nodes += s.res.Nodes
		b.pivots += s.res.LPIterations
	}
	return total
}

// solve builds, presolves and solves the instance and times the three
// calls together. With sc non-nil the benchmark's spans wrap the calls
// and the program's own spans nest under them; prof, when non-nil,
// receives the solver's phase times.
func (c *instanceCase) solve(ctx context.Context, sc *trace.Spans, prof *trace.Profile) (*core.Result, time.Duration, error) {
	t0 := time.Now()
	root := sc.Root("tpbench.instance")
	defer root.End()
	opt := c.opt
	opt.Span, opt.Profile = root, prof
	m, err := core.Build(c.inst, opt)
	if err != nil {
		return nil, time.Since(t0), err
	}
	pre := root.Child("tpbench.presolve")
	m.ApplyPresolve()
	pre.End()
	sol := root.Child("tpbench.solve")
	m.Opt.Span = sol
	res, err := m.SolveContext(ctx)
	sol.End()
	return res, time.Since(t0), err
}

// instanceTrace collects what the traced passes observe.
type instanceTrace struct {
	log    *spanLog
	layers *layerSums
	stats  spanStats
	phases [trace.NumPhases]int64 // ns
}

// solve runs one traced instance solve and, outside its time,
// attributes the instance's spans to layers.
func (tr *instanceTrace) solve(ctx context.Context, c *instanceCase) (*core.Result, time.Duration, error) {
	base := time.Now()
	sc := trace.NewSpans("")
	prof := trace.NewProfile()
	res, d, err := c.solve(ctx, sc, prof)
	spans := tr.log.add(base, sc.Snapshot())
	if err != nil {
		return res, d, err
	}
	tr.stats.add(spans)
	for p := range tr.phases {
		tr.phases[p] += prof.Hist(trace.Phase(p)).SumNS()
	}
	tr.layers.add(spans, func(self []float64, by map[string]float64) {
		// The search span holds the node LPs and the core hooks the
		// node loop calls; the profile says how long each took. Node-LP
		// time includes the root LP, which has its own span.
		var search, root float64
		for i, s := range spans {
			switch s.Name {
			case "search":
				search += self[i]
			case "root-lp":
				root += s.End - s.Start
			}
		}
		nodeLP := min(max(msOf(prof.Hist(trace.PhaseNodeLP).SumNS())-root, 0), search)
		hooks := min(msOf(prof.Hist(trace.PhaseProbe).SumNS()+prof.Hist(trace.PhaseComplete).SumNS()+
			prof.Hist(trace.PhaseBranchSelect).SumNS()), search-nodeLP)
		by["milp.search"] -= nodeLP + hooks
		by["lp.solve"] += nodeLP
		by["core.solve"] += hooks
	})
	return res, d, nil
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }
