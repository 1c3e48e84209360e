package lp

import (
	"slices"
	"strings"

	"repro/internal/trace"
)

// RowCount counts the rows a Problem would store without storing them.
// Its AddRow checks and normalizes a row exactly as Problem.AddRow
// does, so it fails where AddRow fails and counts the entries AddRow
// keeps. A model can run its row emitters against a RowCount first, to
// learn its size and the room its rows need, and emit the rows into a
// Problem only when something reads them.
type RowCount struct {
	vars      int
	rows, nnz int
	// room is the most entries the row store holds while adding one of
	// the rows: the rows before it, merged, plus it as given.
	room int
	// fams counts the rows of registered families by Family>>3, and
	// names those of literal names by their family name.
	fams  []trace.Family
	names []trace.Family
	// idx and val hold the row being normalized.
	idx []int
	val []float64
}

// CountRows returns an empty count of rows over a problem of vars
// columns.
func CountRows(vars int) *RowCount { return &RowCount{vars: vars} }

// AddRow counts the row lo <= sum coef_j x_j <= hi as Problem.AddRow
// would store it, returning the error AddRow would return.
func (c *RowCount) AddRow(k Key, idx []int, coef []float64, lo, hi float64) error {
	if err := checkRow(k, idx, coef, lo, hi, c.vars); err != nil {
		return err
	}
	c.idx = append(c.idx[:0], idx...)
	c.val = append(c.val[:0], coef...)
	n := mergeRow(c.idx, c.val)
	c.room = max(c.room, c.nnz+len(idx))
	c.rows++
	c.nnz += n
	f := c.family(k)
	f.Rows++
	f.NNZ += n
	return nil
}

// family returns the tally of k's family.
func (c *RowCount) family(k Key) *trace.Family {
	if k.fam == 0 {
		name := k.Family()
		for i := range c.names {
			if c.names[i].Name == name {
				return &c.names[i]
			}
		}
		c.names = append(c.names, trace.Family{Name: name})
		return &c.names[len(c.names)-1]
	}
	i := int(k.fam >> 3)
	if i >= len(c.fams) {
		c.fams = append(c.fams, make([]trace.Family, i+1-len(c.fams))...)
	}
	return &c.fams[i]
}

// Stats returns the size of the problem with the counted rows: its
// columns, rows and nonzero coefficients.
func (c *RowCount) Stats() Stats { return Stats{Vars: c.vars, Rows: c.rows, NNZ: c.nnz} }

// Families returns the counted rows and nonzeros per constraint
// family — the row-name prefix before '[', as Key.Family reads it —
// sorted by name.
func (c *RowCount) Families() []trace.Family {
	var out []trace.Family
	for i, f := range c.fams {
		if f.Rows > 0 {
			f.Name = Key{fam: Family(i << 3)}.Family()
			out = append(out, f)
		}
	}
	out = append(out, c.names...)
	slices.SortStableFunc(out, func(a, b trace.Family) int { return strings.Compare(a.Name, b.Name) })
	// families whose layouts share a prefix report as one
	merged := out[:0]
	for _, f := range out {
		if n := len(merged); n > 0 && merged[n-1].Name == f.Name {
			merged[n-1].Rows += f.Rows
			merged[n-1].NNZ += f.NNZ
			continue
		}
		merged = append(merged, f)
	}
	return merged
}
