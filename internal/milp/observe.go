package milp

import (
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/trace"
)

// observer is the per-solve sink of search events. SolveContext builds
// it once from Options.{Trace,Record,BlackBox,Profile} and every worker
// reaches it through the shared state. The search emits each event
// once, here, and each consumer keeps what it needs: the flight
// recorder the first N nodes, the black box the last N, the tracer a
// sampled node stream plus incumbents and the terminal status. Live
// introspection (SearchStatus) takes nothing from it: that is a pull
// view over shared's atomics.
type observer struct {
	sh     *shared
	tr     *trace.Tracer
	sample int64 // node-event interval; always positive
	rec    *trace.Recorder
	bb     *trace.BlackBox
	prof   *trace.Profile
	// nodes is set when a per-node consumer (tr, rec or bb) is attached;
	// with it off the node loop builds no event.
	nodes bool
}

// newObserver resolves the observability options of one solve.
// Recording implies profiling so the recording footer always carries a
// phase breakdown; a caller-supplied Profile is reused as-is.
func newObserver(sh *shared, opt *Options) observer {
	o := observer{sh: sh, tr: opt.Trace, sample: opt.Trace.SampleEvery(),
		rec: opt.Record, bb: opt.BlackBox, prof: opt.Profile}
	if o.rec != nil && o.prof == nil {
		o.prof = trace.NewProfile()
	}
	o.rec.SetProfile(o.prof) // nil-receiver safe
	o.nodes = o.tr != nil || o.rec != nil || o.bb != nil
	return o
}

// node takes one explored node: the recorder appends it (keep-first),
// the black box rings it (keep-last) and every sample-th node streams a
// progress event.
func (o *observer) node(n trace.NodeRec) {
	o.rec.Node(n)
	if o.bb != nil {
		o.bb.Record(trace.BBEvent{Kind: trace.BBNode, Node: n.ID, Worker: int(n.Worker),
			Depth: int(n.Depth), Col: int(n.Col), Obj: n.Obj, Bound: n.Best, Incumbent: n.Inc})
	}
	if o.tr != nil && n.ID%o.sample == 0 {
		o.progress(trace.KindNode, int(n.Worker))
	}
}

// incumbent takes an incumbent install: obj, found by worker while it
// explored node (0 for the root dive).
func (o *observer) incumbent(worker int, node int64, obj float64) {
	o.rec.Incumbent(node, obj)
	if o.bb != nil {
		o.bb.Record(trace.BBEvent{Kind: trace.BBIncumbent, Worker: worker,
			Node: node, Incumbent: obj, Bound: o.sh.displayBound()})
	}
	o.progress(trace.KindIncumbent, worker)
}

// progress streams a search-progress event carrying the global node
// count, the incumbent (when one exists), the display bound and the
// relative gap. The figures are read and emitted under shared.emitMu,
// so the streamed bound never goes backwards across workers. No-op
// when tracing is off.
func (o *observer) progress(kind trace.Kind, worker int) {
	if o.tr == nil {
		return
	}
	o.sh.emitMu.Lock()
	defer o.sh.emitMu.Unlock()
	e := trace.Event{Kind: kind, Nodes: o.sh.nodes.Load(), Worker: worker}
	if inc := o.sh.incumbent(); isFinite(inc) {
		e.HasIncumbent, e.Incumbent = true, inc
	}
	if b := o.sh.displayBound(); isFinite(b) {
		e.Bound = b
		if e.HasIncumbent {
			e.Gap = gapOf(e.Incumbent, b)
		}
	}
	o.tr.Emit(e)
}

// finish closes the event stream of a solve that got past the root LP,
// on every return: it stamps the recorder footer (LP engine, search
// stats, totals) and emits the terminal status event. nodes is the
// explored-node total both report.
func (o *observer) finish(res *Result, lps *lp.Solver, nodes int64) {
	if o.rec == nil && o.tr == nil {
		return
	}
	st := lpStatOf(lps)
	if o.rec != nil {
		mode := "" // unresolved when the root LP decided the solve
		if res.Mode != ModeAuto {
			mode = res.Mode.String()
		}
		o.rec.SetLPStat(st)
		o.rec.SetSearchStats(mode, res.Steals, res.FirstIncumbentNodes, int64(res.FirstIncumbent))
		o.rec.Finalize(res.Status.String(), res.Runtime, nodes, int64(res.LPIterations))
	}
	if o.tr == nil {
		return
	}
	o.sh.raiseBound(res.BestBound)
	c := &lps.Counters
	e := trace.Event{
		Kind:             trace.KindStatus,
		Status:           res.Status.String(),
		Nodes:            nodes,
		Pivots:           int64(res.LPIterations),
		Refactorizations: c.Refactorizations,
		FarkasChecks:     c.FarkasChecks,
		FarkasRejected:   c.FarkasRejected,
		WindowScans:      c.WindowScans,
		CandidateHits:    c.CandidateHits,
		LPStat:           st,
		Bound:            o.sh.displayBound(),
	}
	if st.BasisNNZ > 0 {
		e.FillIn = float64(st.FactorNNZ) / float64(st.BasisNNZ)
	}
	if res.X != nil {
		e.HasIncumbent = true
		e.Incumbent = res.Objective
		e.Gap = gapOf(res.Objective, e.Bound)
	}
	o.tr.Emit(e)
}

// clock starts a phase timer: the current time while profiling is on,
// the zero time (and no clock read) otherwise.
func (o *observer) clock() time.Time {
	if o.prof == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap attributes the time since t0 to phase p and returns it in
// nanoseconds; 0 without a clock read while profiling is off.
func (o *observer) lap(p trace.Phase, t0 time.Time) int64 {
	if o.prof == nil {
		return 0
	}
	ns := time.Since(t0).Nanoseconds()
	o.prof.Observe(p, ns)
	return ns
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// lpStatOf summarizes the LP engine's factorization/solve counters for
// the recording footer and the status event (replay tools derive
// fill-in and the realized refactorization interval from it offline).
func lpStatOf(lps *lp.Solver) trace.LPStat {
	return trace.LPStat{
		Factorizations: lps.Counters.Factorizations,
		FTRANs:         lps.Counters.FTRANs,
		BTRANs:         lps.Counters.BTRANs,
		EtaNNZ:         lps.Counters.EtaNNZ,
		BasisNNZ:       lps.Counters.BasisNNZ,
		FactorNNZ:      lps.Counters.FactorNNZ,
	}
}
