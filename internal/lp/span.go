package lp

import "repro/internal/trace"

// AnnotateSpan copies the engine counters onto sp as numeric span
// attributes — the bridge between the LP engine's internals and the
// span tree of an observed solve (the root-lp and search spans carry
// them). Zero counters are skipped; a nil span (spans off) costs a
// single pointer compare.
func (c *Counters) AnnotateSpan(sp *trace.Span) {
	if sp == nil {
		return
	}
	set := func(k string, v int64) {
		if v != 0 {
			sp.SetNum(k, float64(v))
		}
	}
	set("refactorizations", c.Refactorizations)
	set("farkas_checks", c.FarkasChecks)
	set("farkas_rejected", c.FarkasRejected)
	set("window_scans", c.WindowScans)
	set("candidate_hits", c.CandidateHits)
	set("factorizations", c.Factorizations)
	set("ftrans", c.FTRANs)
	set("btrans", c.BTRANs)
	set("eta_nnz", c.EtaNNZ)
	set("basis_nnz", c.BasisNNZ)
	set("factor_nnz", c.FactorNNZ)
}
