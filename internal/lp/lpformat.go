package lp

import (
	"bufio"
	"fmt"
	"io"
	"math"
)

// WriteLP emits the problem in CPLEX LP format — the human-readable
// sibling of MPS, convenient for eyeballing generated models and for
// feeding external solvers. Range rows are split into two inequalities.
func (p *Problem) WriteLP(w io.Writer, name string) error {
	bw := bufio.NewWriter(w)
	if name != "" {
		fmt.Fprintf(bw, "\\ %s\n", name)
	}
	fmt.Fprintln(bw, "Minimize")
	fmt.Fprint(bw, " obj:")
	first := true
	for j, c := range p.obj {
		if c == 0 {
			continue
		}
		writeTerm(bw, &first, c, p.colName(j))
	}
	if first {
		fmt.Fprint(bw, " 0 "+p.colName(0))
	}
	fmt.Fprintln(bw)
	fmt.Fprintln(bw, "Subject To")
	for i := 0; i < p.NumRows(); i++ {
		idx, val := p.Row(i)
		if len(idx) == 0 {
			continue
		}
		emit := func(op string, rhs float64, suffix string) {
			fmt.Fprintf(bw, " r%d%s:", i, suffix)
			f := true
			for k, j := range idx {
				writeTerm(bw, &f, val[k], p.colName(j))
			}
			fmt.Fprintf(bw, " %s %.12g\n", op, rhs)
		}
		lo, hi := p.RowRange(i)
		switch {
		case lo == hi:
			emit("=", lo, "")
		case math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			emit("<=", hi, "")
		case !math.IsInf(lo, -1) && math.IsInf(hi, 1):
			emit(">=", lo, "")
		case !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
			emit(">=", lo, "a")
			emit("<=", hi, "b")
		}
	}
	fmt.Fprintln(bw, "Bounds")
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.lo[j], p.hi[j]
		name := p.colName(j)
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			fmt.Fprintf(bw, " %s free\n", name)
		case lo == hi:
			fmt.Fprintf(bw, " %s = %.12g\n", name, lo)
		case math.IsInf(hi, 1):
			fmt.Fprintf(bw, " %.12g <= %s\n", lo, name)
		case math.IsInf(lo, -1):
			fmt.Fprintf(bw, " %s <= %.12g\n", name, hi)
		default:
			fmt.Fprintf(bw, " %.12g <= %s <= %.12g\n", lo, name, hi)
		}
	}
	fmt.Fprintln(bw, "End")
	return bw.Flush()
}

func (p *Problem) colName(j int) string { return mpsName(p.VarName(j), j) }

func writeTerm(w io.Writer, first *bool, c float64, name string) {
	switch {
	case *first && c == 1:
		fmt.Fprintf(w, " %s", name)
	case *first:
		fmt.Fprintf(w, " %.12g %s", c, name)
	case c == 1:
		fmt.Fprintf(w, " + %s", name)
	case c == -1:
		fmt.Fprintf(w, " - %s", name)
	case c < 0:
		fmt.Fprintf(w, " - %.12g %s", -c, name)
	default:
		fmt.Fprintf(w, " + %.12g %s", c, name)
	}
	*first = false
}
