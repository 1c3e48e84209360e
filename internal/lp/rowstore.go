package lp

// rowStore holds constraint rows flat: row i's columns are
// idx[start[i]:start[i+1]], ascending, its coefficients sit at the same
// positions of val, and its range is [lo[i], hi[i]]. The arrays hold no
// pointers, so the garbage collector never scans them, and adding a row
// appends to them instead of allocating.
//
// Stores share arrays: a Problem, its clones and its solvers read the
// same rows. Appending is safe because sharers hold their arrays full
// (see full): the next append of any sharer copies before it writes.
// Nothing writes into a row once it is stored.
type rowStore struct {
	start  []int32 // row starts, with a final entry: len(lo)+1 entries once a row exists
	idx    []int
	val    []float64
	lo, hi []float64
}

// len returns the number of rows.
func (rs *rowStore) len() int { return len(rs.lo) }

// row returns the columns and coefficients of row i, capped so that an
// append to them cannot reach the next row.
func (rs *rowStore) row(i int) ([]int, []float64) {
	a, b := rs.start[i], rs.start[i+1]
	return rs.idx[a:b:b], rs.val[a:b:b]
}

// nnz returns the number of entries in row i.
func (rs *rowStore) nnz(i int) int { return int(rs.start[i+1] - rs.start[i]) }

// add appends the row lo <= sum coef_k x_idx_k <= hi, normalized: each
// column's coefficients sum from zero in input order, zero sums drop
// out, and the columns come out ascending. The caller has checked the
// lengths, the range and the column indices.
func (rs *rowStore) add(idx []int, coef []float64, lo, hi float64) {
	if len(rs.start) == 0 {
		rs.start = append(rs.start, 0)
	}
	base := len(rs.idx)
	rs.idx = append(grow(rs.idx, len(idx)), idx...)
	rs.val = append(grow(rs.val, len(coef)), coef...)
	n := base + mergeRow(rs.idx[base:], rs.val[base:])
	rs.idx, rs.val = rs.idx[:n], rs.val[:n]
	rs.start = append(grow(rs.start, 1), int32(n))
	rs.lo = append(grow(rs.lo, 1), lo)
	rs.hi = append(grow(rs.hi, 1), hi)
}

// reserve makes room for rows more rows holding nnz entries in all,
// counted as add needs them: a row takes its length as given until it
// is merged.
func (rs *rowStore) reserve(rows, nnz int) {
	starts := rows
	if len(rs.start) == 0 {
		starts++ // the leading zero
	}
	rs.start = reserve(rs.start, starts)
	rs.idx = reserve(rs.idx, nnz)
	rs.val = reserve(rs.val, nnz)
	rs.lo = reserve(rs.lo, rows)
	rs.hi = reserve(rs.hi, rows)
}

// mergeRow sorts a row by column in place, sums each column's entries
// from zero in input order, drops zero sums, and returns the merged
// length.
func mergeRow(idx []int, val []float64) int {
	for k := 1; k < len(idx); k++ {
		if idx[k] <= idx[k-1] {
			sortRow(idx, val)
			break
		}
	}
	n := 0
	for k := 0; k < len(idx); {
		v, j := 0.0, idx[k]
		for ; k < len(idx) && idx[k] == j; k++ {
			v += val[k]
		}
		if v != 0 {
			idx[n], val[n] = j, v
			n++
		}
	}
	return n
}

// sortRow stable-sorts a row by column with an insertion sort, so
// equal columns keep their order.
func sortRow(idx []int, val []float64) {
	for a := 1; a < len(idx); a++ {
		j, v := idx[a], val[a]
		b := a
		for ; b > 0 && idx[b-1] > j; b-- {
			idx[b], val[b] = idx[b-1], val[b-1]
		}
		idx[b], val[b] = j, v
	}
}

// full returns the store with every array's capacity cut to its
// length, for handing to a sharer.
func (rs rowStore) full() rowStore {
	return rowStore{
		start: full(rs.start),
		idx:   full(rs.idx),
		val:   full(rs.val),
		lo:    full(rs.lo),
		hi:    full(rs.hi),
	}
}

// subset returns a new store holding the rows listed in keep, in
// order.
func (rs *rowStore) subset(keep []int) rowStore {
	nnz := 0
	for _, i := range keep {
		nnz += rs.nnz(i)
	}
	out := rowStore{
		start: make([]int32, 1, len(keep)+1),
		idx:   make([]int, 0, nnz),
		val:   make([]float64, 0, nnz),
		lo:    make([]float64, 0, len(keep)),
		hi:    make([]float64, 0, len(keep)),
	}
	for _, i := range keep {
		idx, val := rs.row(i)
		out.idx = append(out.idx, idx...)
		out.val = append(out.val, val...)
		out.start = append(out.start, int32(len(out.idx)))
		out.lo = append(out.lo, rs.lo[i])
		out.hi = append(out.hi, rs.hi[i])
	}
	return out
}

// full returns s with its capacity cut to its length, so the next
// append to it copies instead of writing where another holder of the
// array may read.
func full[T any](s []T) []T { return s[:len(s):len(s)] }

// reserve returns s with room for exactly n more elements, moving it
// only when it has less.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// grow returns s with room for n more elements. When it must move s it
// doubles the capacity: append grows large slices by a quarter at a
// time, which would copy a model's row store several times over as it
// builds. Appending zeros to s cut to its length moves it without
// clearing the part the copy overwrites, as make and copy would.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(s[:len(s):len(s)], make([]T, max(cap(s), n, 16))...)[:len(s)]
}
