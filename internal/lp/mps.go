package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
)

// WriteMPS emits the problem in fixed MPS format (the interchange
// format of the lp_solve era), so models can be inspected with or
// cross-checked against external solvers. Range constraints are
// emitted via the RANGES section; variable bounds via BOUNDS.
func (p *Problem) WriteMPS(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if name = mpsClean(name); name == "" {
		name = "REPRO"
	}
	fmt.Fprintf(bw, "NAME          %s\n", name)
	// ROWS: objective plus one row per constraint. Row types: N for
	// the objective; E/L/G for equality and one-sided rows; ranges use
	// the primary type plus a RANGES entry.
	fmt.Fprintln(bw, "ROWS")
	fmt.Fprintln(bw, " N  COST")
	type rowInfo struct {
		typ  byte
		rhs  float64
		rng  float64 // 0 = none
		name string
	}
	rows := make([]rowInfo, p.NumRows())
	for i := range rows {
		lo, hi := p.RowRange(i)
		ri := rowInfo{name: fmt.Sprintf("R%d", i)}
		switch {
		case lo == hi:
			ri.typ, ri.rhs = 'E', lo
		case math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			ri.typ, ri.rhs = 'L', hi
		case !math.IsInf(lo, -1) && math.IsInf(hi, 1):
			ri.typ, ri.rhs = 'G', lo
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			ri.typ, ri.rhs = 'N', 0 // free row
		default:
			ri.typ, ri.rhs, ri.rng = 'L', hi, hi-lo
		}
		rows[i] = ri
		fmt.Fprintf(bw, " %c  %s\n", ri.typ, ri.name)
	}
	// COLUMNS
	fmt.Fprintln(bw, "COLUMNS")
	entries := make([][][2]interface{}, p.NumVars())
	for i := range rows {
		idx, val := p.Row(i)
		for k, j := range idx {
			entries[j] = append(entries[j], [2]interface{}{rows[i].name, val[k]})
		}
	}
	for j := 0; j < p.NumVars(); j++ {
		col := p.colName(j)
		// always emit the objective entry (even when zero) so every
		// column is declared and column order is preserved on re-read
		fmt.Fprintf(bw, "    %-10s COST      %.12g\n", col, p.obj[j])
		for _, e := range entries[j] {
			fmt.Fprintf(bw, "    %-10s %-9s %.12g\n", col, e[0], e[1])
		}
	}
	// RHS
	fmt.Fprintln(bw, "RHS")
	for i := range rows {
		if rows[i].rhs != 0 {
			fmt.Fprintf(bw, "    RHS        %-9s %.12g\n", rows[i].name, rows[i].rhs)
		}
	}
	// RANGES
	hasRange := false
	for i := range rows {
		if rows[i].rng != 0 {
			if !hasRange {
				fmt.Fprintln(bw, "RANGES")
				hasRange = true
			}
			fmt.Fprintf(bw, "    RNG        %-9s %.12g\n", rows[i].name, rows[i].rng)
		}
	}
	// BOUNDS: default MPS bounds are [0, +inf); emit the rest.
	fmt.Fprintln(bw, "BOUNDS")
	for j := 0; j < p.NumVars(); j++ {
		col := p.colName(j)
		lo, hi := p.lo[j], p.hi[j]
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			fmt.Fprintf(bw, " FR BND        %s\n", col)
		case lo == hi:
			fmt.Fprintf(bw, " FX BND        %-9s %.12g\n", col, lo)
		default:
			if lo != 0 {
				if math.IsInf(lo, -1) {
					fmt.Fprintf(bw, " MI BND        %s\n", col)
				} else {
					fmt.Fprintf(bw, " LO BND        %-9s %.12g\n", col, lo)
				}
			}
			if !math.IsInf(hi, 1) {
				fmt.Fprintf(bw, " UP BND        %-9s %.12g\n", col, hi)
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// mpsClean keeps only the ASCII letters and digits of name.
func mpsClean(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		}
		return -1
	}, name)
}

// mpsName produces a unique, MPS-safe column name.
func mpsName(name string, j int) string {
	clean := mpsClean(name)
	if clean == "" {
		clean = "X"
	}
	if len(clean) > 6 {
		clean = clean[:6]
	}
	return fmt.Sprintf("%s_%d", clean, j)
}
