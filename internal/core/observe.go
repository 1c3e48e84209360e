package core

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// familyStats aggregates the generated rows by constraint family — the
// row-name prefix before '[' (uniq, assign, zlo, t28, ...), read from
// each row's key without formatting its name — so a model event
// reports how large each family of the formulation came out, including
// the tightening-cut rows t28/t29/t30/t32 per CutSet member.
func (m *Model) familyStats() []trace.Family {
	byName := map[string]*trace.Family{}
	for i := 0; i < m.P.NumRows(); i++ {
		name := m.P.RowKey(i).Family()
		f := byName[name]
		if f == nil {
			f = &trace.Family{Name: name}
			byName[name] = f
		}
		f.Rows++
		f.NNZ += m.P.RowNNZ(i)
	}
	out := make([]trace.Family, 0, len(byName))
	for _, f := range byName {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// emitModelEvent reports the generated model's shape on the configured
// tracer at the end of Build. No-op when tracing is off.
func (m *Model) emitModelEvent() {
	tr := m.Opt.Trace
	if !tr.Enabled() {
		return
	}
	density := 0.0
	if m.stats.Vars > 0 && m.stats.Rows > 0 {
		density = float64(m.stats.NNZ) / (float64(m.stats.Vars) * float64(m.stats.Rows))
	}
	tr.Emit(trace.Event{
		Kind:     trace.KindModel,
		Vars:     m.stats.Vars,
		Rows:     m.stats.Rows,
		NNZ:      m.stats.NNZ,
		Density:  density,
		Families: m.familyStats(),
		Msg: fmt.Sprintf("N=%d L=%d lin=%s tightened=%t",
			m.N, m.Opt.L, m.Opt.Linearization, m.Opt.Tightened),
	})
}

// EmitResult reports a terminal core-level outcome on the configured
// tracer. SolveContext emits its own result; the export exists for the
// delta layer's conclusion-reuse path, which produces a Result without
// entering SolveContext but still owes the job trace its terminal
// result event.
func (m *Model) EmitResult(res *Result) { m.emitResult(res) }

// emitResult reports the terminal core-level outcome — after solution
// extraction and independent verification — on the configured tracer.
func (m *Model) emitResult(res *Result) {
	tr := m.Opt.Trace
	if !tr.Enabled() {
		return
	}
	e := trace.Event{
		Kind:   trace.KindResult,
		Nodes:  int64(res.Nodes),
		Pivots: int64(res.LPIterations),
	}
	switch {
	case res.Cancelled:
		e.Status = "cancelled"
	case res.Optimal && res.Feasible:
		e.Status = "optimal"
	case res.Optimal:
		e.Status = "infeasible"
	case res.Feasible:
		e.Status = "feasible"
	default:
		e.Status = "limit"
	}
	if res.Solution != nil {
		e.HasIncumbent = true
		e.Incumbent = float64(res.Solution.Comm)
	}
	tr.Emit(e)
}
