package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// span is one timed region of a traced run on the benchmark's clock:
// the benchmark's own spans around each public layer call, and the
// program's spans (core.Options.Span, GET /v1/jobs/{id}/spans) re-based
// onto that clock. Trace is one id per instance solve or client request.
type span struct {
	Trace  string             `json:"trace"`
	ID     string             `json:"id"`
	Parent string             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_ms"`
	End    float64            `json:"end_ms"`
	Num    map[string]float64 `json:"num,omitempty"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// ms is t on the log's clock.
func (l *spanLog) ms(t time.Time) float64 {
	return float64(t.Sub(l.origin)) / float64(time.Millisecond)
}

// add re-bases finished trace.Spans records whose StartMS count from
// base and appends them.
func (l *spanLog) add(base time.Time, recs []trace.SpanRec) []span {
	at := l.ms(base)
	out := make([]span, len(recs))
	for i, r := range recs {
		out[i] = span{Trace: r.TraceID, ID: r.SpanID, Parent: r.ParentID, Name: r.Name,
			Start: at + r.StartMS, End: at + r.StartMS + r.DurMS, Num: r.Num}
	}
	l.mu.Lock()
	l.spans = append(l.spans, out...)
	l.mu.Unlock()
	return out
}

// writeNDJSON writes every span, one JSON object per line, ordered by
// start time.
func (l *spanLog) writeNDJSON(w io.Writer) error {
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// spanStats collects per-call numbers of single layers from traced
// spans: build time and model size, solve time after the build, and the
// root LP's time and pivots.
type spanStats struct {
	build, solve, rootPivots, vars, rows, nnz []float64
	root                                      float64 // ms, summed
}

// add takes the spans of one trace. The service's solve span holds the
// build; the benchmark's own solve span follows it.
func (st *spanStats) add(spans []span) {
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case "root-lp":
			st.root += d
			st.rootPivots = append(st.rootPivots, s.Num["pivots"])
		case "build":
			st.build = append(st.build, d)
			st.vars = append(st.vars, s.Num["vars"])
			st.rows = append(st.rows, s.Num["rows"])
			st.nnz = append(st.nnz, s.Num["nnz"])
		case "tpbench.solve":
			st.solve = append(st.solve, d)
		case "solve":
			for _, c := range spans {
				if c.Parent == s.ID && c.Name == "build" {
					d -= c.End - c.Start
				}
			}
			st.solve = append(st.solve, d)
		}
	}
}

// fill reports the medians, and the root LP's share of e2e, the summed
// end-to-end ms of the same traces.
func (st *spanStats) fill(m map[string]float64, e2e float64) {
	m["core.build_ms"] = percentile(st.build, 50)
	m["core.solve_ms"] = percentile(st.solve, 50)
	if e2e > 0 {
		m["lp.root_pct"] = 100 * st.root / e2e
	}
	m["lp.root_pivots"] = percentile(st.rootPivots, 50)
	m["core.model_vars"] = percentile(st.vars, 50)
	m["core.model_rows"] = percentile(st.rows, 50)
	m["core.model_nnz"] = percentile(st.nnz, 50)
}

// waitSpan names the spans in which work waits rather than runs.
const waitSpan = "queue"

// selfTimes takes the spans of one trace, splits the interval of every
// root span (one without a parent among spans) among the spans of its
// tree and returns each span's share in ms, by index. Each instant goes
// to the innermost open span, and is split equally when several are
// equally deep. For nested spans that is a span's duration minus the
// union of its children's intervals. Siblings may overlap: the deferred
// jobs of a batch chain sit in their queue spans while a predecessor
// solves. A waiting span therefore yields to a working span as deep as
// itself, so each instant counts once and the self times of a tree sum
// to its root's duration.
func selfTimes(spans []span) []float64 {
	idx := make(map[string]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	depth := make([]int, len(spans))
	for i := range spans {
		for p, ok := idx[spans[i].Parent]; ok && depth[i] < len(spans); p, ok = idx[spans[p].Parent] {
			depth[i]++
		}
	}
	var cuts []float64
	for _, s := range spans {
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Float64s(cuts)
	self := make([]float64, len(spans))
	var best []int
	for k := 1; k < len(cuts); k++ {
		a, b := cuts[k-1], cuts[k]
		if b <= a {
			continue
		}
		best = best[:0]
		rooted, bestRank := false, -1
		for i, s := range spans {
			if s.Start > a || s.End < b {
				continue
			}
			rooted = rooted || depth[i] == 0
			rank := 2 * depth[i]
			if s.Name != waitSpan {
				rank++
			}
			switch {
			case rank > bestRank:
				best, bestRank = best[:0], rank
			case rank < bestRank:
				continue
			}
			best = append(best, i)
		}
		if !rooted {
			continue
		}
		for _, i := range best {
			self[i] += (b - a) / float64(len(best))
		}
	}
	return self
}
