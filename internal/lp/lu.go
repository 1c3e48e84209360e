package lp

import "math"

// This file is the linear-algebra kernel of the revised simplex engine:
// a sparse LU factorization of the basis (Gilbert–Peierls left-looking
// with partial pivoting), product-form eta updates appended per pivot,
// and the FTRAN/BTRAN solves every revised iteration is built from.
//
// Notation. The basis B has one column per row position i: the column
// of basis[i] in [A | I] (structural columns come from the CSC copy of
// A, the logical column of row i is e_i). The factorization computes
//
//	B·Q = P^{-1}·L·U
//
// with a row permutation P chosen by partial pivoting (pinv/prow) and a
// column order Q chosen before factorizing (cord: columns sorted by
// nonzero count, a cheap Markowitz-style fill heuristic). Then
//
//	FTRAN:  B^{-1}b  = Q·U^{-1}·L^{-1}·P·b, followed by the eta file
//	        in chronological order
//	BTRAN:  B^{-T}y  = P^T·L^{-T}·U^{-T}·Q^T·y, preceded by the eta
//	        transposes in reverse order
//
// Each pivot appends one eta E = I + (α−e_r)e_r^T (α the FTRAN'd
// entering column, r the leaving position), so B_k = B_0·E_1···E_k and
// only periodic refactorization rebuilds L/U. All solve loops skip
// zero-valued entries (value-based hyper-sparsity): a unit right-hand
// side typically touches a tiny fraction of the factor nonzeros.

// singTol is the smallest pivot magnitude the factorization accepts; a
// basis producing nothing larger is treated as numerically singular and
// the caller falls back to a fresh all-logical basis.
const singTol = 1e-11

// csc is a compressed-sparse-column copy of the structural matrix A,
// built once per solver. Immutable after construction, shared by
// clones.
type csc struct {
	ptr []int32 // n+1 column pointers
	row []int32 // row indices, ascending within a column
	val []float64
}

// buildCSC transposes the row store into column form.
func buildCSC(n int, rows *rowStore) *csc {
	c := &csc{ptr: make([]int32, n+1)}
	nnz := 0
	for i := 0; i < rows.len(); i++ {
		idx, _ := rows.row(i)
		nnz += len(idx)
		for _, j := range idx {
			c.ptr[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		c.ptr[j+1] += c.ptr[j]
	}
	c.row = make([]int32, nnz)
	c.val = make([]float64, nnz)
	next := make([]int32, n)
	for j := 0; j < n; j++ {
		next[j] = c.ptr[j]
	}
	for i := 0; i < rows.len(); i++ {
		idx, val := rows.row(i)
		for k, j := range idx {
			t := next[j]
			c.row[t] = int32(i)
			c.val[t] = val[k]
			next[j] = t + 1
		}
	}
	return c
}

// colNNZ returns the nonzero count of column j.
func (c *csc) colNNZ(j int) int { return int(c.ptr[j+1] - c.ptr[j]) }

// basisLU holds the factorized basis representation: LU factors with
// permutations, their transposes (for scatter-style BTRAN), and the
// eta file of pivots applied since the last factorization. All slices
// are grow-only scratch — refactorization reslices to length zero and
// appends into retained capacity, so the warm solve cycle allocates
// nothing once buffers have grown to their steady-state sizes.
type basisLU struct {
	m int

	// Column order and row permutation of the current factorization.
	cord []int32 // cord[k] = basis position factored k-th
	pinv []int32 // pinv[origRow] = pivot order, -1 while unpivoted
	prow []int32 // prow[k] = origRow pivoted k-th (inverse of pinv)

	// L: unit lower triangular, CSC by pivot order, implicit diagonal.
	// Row indices are original rows during factorization and are
	// remapped to pivot order at the end.
	lptr []int32
	lrow []int32
	lval []float64
	// U: upper triangular, CSC by pivot order, diagonal split out.
	uptr  []int32
	urow  []int32
	uval  []float64
	udiag []float64

	// Transposes of L and U (built at factorize time) so BTRAN runs as
	// forward/backward scatter with value skipping, like FTRAN.
	ltptr []int32
	ltrow []int32
	ltval []float64
	utptr []int32
	utrow []int32
	utval []float64

	// Eta file: eta e replaces position etaPos[e] with the FTRAN'd
	// entering column; etaPiv[e] is its pivot-position value and
	// etaIdx/etaVal (delimited by etaStart) the off-pivot entries.
	etaStart []int32
	etaPos   []int32
	etaPiv   []float64
	etaIdx   []int32
	etaVal   []float64

	// luNNZ is nnz(L)+nnz(U) including diagonals; basisNNZ the nonzero
	// count of the factorized basis columns (fill-in = luNNZ/basisNNZ).
	luNNZ    int
	basisNNZ int

	// scratch
	x    []float64 // dense work vector, original-row space
	w    []float64 // dense work vector, pivot-order space
	pat  []int32   // reach pattern, filled top..m-1
	stk  []int32   // DFS node stack
	pstk []int32   // DFS per-level child cursor
	flag []int32   // DFS visited marks, stamped with gen
	gen  int32
	cnt  []int32 // counting-sort / transpose scratch
}

func newBasisLU(m int) *basisLU {
	return &basisLU{
		m:    m,
		cord: make([]int32, m),
		pinv: make([]int32, m),
		prow: make([]int32, m),
		x:    make([]float64, m),
		w:    make([]float64, m),
		pat:  make([]int32, m),
		stk:  make([]int32, m),
		pstk: make([]int32, m),
		flag: make([]int32, m),
		cnt:  make([]int32, m+2),
	}
}

// nEtas returns the number of etas appended since the factorization.
func (f *basisLU) nEtas() int { return len(f.etaPos) }

// etaNNZ returns the off-pivot entry count of the eta file.
func (f *basisLU) etaNNZ() int { return len(f.etaIdx) }

// factorize rebuilds L/U from the basis columns, dropping the eta file.
// basisCol enumerates the column of basis position pos as (origRow,
// value) pairs via the provided append-style gather; it reports false
// when the basis is numerically singular (caller resets the basis).
func (f *basisLU) factorize(basis []int, n int, a *csc) bool {
	m := f.m
	// column order: nonzero count ascending, position ascending on ties
	// (stable counting sort — deterministic and allocation-free).
	cnt := f.cnt[:m+2]
	for i := range cnt {
		cnt[i] = 0
	}
	colNNZ := func(pos int) int {
		if v := basis[pos]; v < n {
			return a.colNNZ(v)
		}
		return 1
	}
	for pos := 0; pos < m; pos++ {
		cnt[colNNZ(pos)+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for pos := 0; pos < m; pos++ {
		k := colNNZ(pos)
		f.cord[cnt[k]] = int32(pos)
		cnt[k]++
	}

	for i := 0; i < m; i++ {
		f.pinv[i] = -1
		f.flag[i] = 0
	}
	f.gen = 0
	f.lptr = append(f.lptr[:0], 0)
	f.lrow = f.lrow[:0]
	f.lval = f.lval[:0]
	f.uptr = append(f.uptr[:0], 0)
	f.urow = f.urow[:0]
	f.uval = f.uval[:0]
	f.udiag = f.udiag[:0]
	x := f.x
	basisNNZ := 0

	for k := 0; k < m; k++ {
		pos := int(f.cord[k])
		v := basis[pos]
		// gather column v of [A|I] and solve x = L^{-1} (column)
		f.gen++
		top := m
		if v < n {
			for t := a.ptr[v]; t < a.ptr[v+1]; t++ {
				top = f.reach(int(a.row[t]), top)
			}
			for t := a.ptr[v]; t < a.ptr[v+1]; t++ {
				x[a.row[t]] = a.val[t]
			}
			basisNNZ += a.colNNZ(v)
		} else {
			top = f.reach(v-n, top)
			x[v-n] = 1
			basisNNZ++
		}
		// sparse triangular solve in topological order: node i scatters
		// its completed L column into dependents
		for t := top; t < m; t++ {
			i := f.pat[t]
			ki := f.pinv[i]
			if ki < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for u := f.lptr[ki]; u < f.lptr[ki+1]; u++ {
				x[f.lrow[u]] -= f.lval[u] * xi
			}
		}
		// partial pivoting: largest magnitude among unpivoted rows,
		// ties broken toward the lowest original row (determinism)
		pivRow, pivAbs := int32(-1), 0.0
		for t := top; t < m; t++ {
			i := f.pat[t]
			if f.pinv[i] >= 0 {
				continue
			}
			if av := math.Abs(x[i]); av > pivAbs || (av == pivAbs && pivRow >= 0 && i < pivRow) {
				pivAbs, pivRow = av, i
			}
		}
		if pivRow < 0 || pivAbs < singTol {
			for t := top; t < m; t++ {
				x[f.pat[t]] = 0
			}
			return false
		}
		xp := x[pivRow]
		f.pinv[pivRow] = int32(k)
		f.prow[k] = pivRow
		f.udiag = append(f.udiag, xp)
		for t := top; t < m; t++ {
			i := f.pat[t]
			xi := x[i]
			x[i] = 0
			if xi == 0 || i == pivRow {
				continue
			}
			if ki := f.pinv[i]; ki >= 0 && ki < int32(k) {
				f.urow = append(f.urow, ki)
				f.uval = append(f.uval, xi)
			} else if ki < 0 {
				f.lrow = append(f.lrow, i) // original row; remapped below
				f.lval = append(f.lval, xi/xp)
			}
		}
		f.lptr = append(f.lptr, int32(len(f.lrow)))
		f.uptr = append(f.uptr, int32(len(f.urow)))
	}
	// remap L's row indices into pivot order
	for t := range f.lrow {
		f.lrow[t] = f.pinv[f.lrow[t]]
	}
	f.luNNZ = len(f.lrow) + len(f.urow) + m
	f.basisNNZ = basisNNZ
	f.buildTransposes()
	f.etaStart = append(f.etaStart[:0], 0)
	f.etaPos = f.etaPos[:0]
	f.etaPiv = f.etaPiv[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	return true
}

// reach pushes the rows reachable from origRow i (through completed L
// columns) onto pat[top-1:...] in topological order; returns the new
// top. Nonrecursive depth-first search with a resumable child cursor,
// the cs_dfs scheme.
func (f *basisLU) reach(i int, top int) int {
	if f.flag[i] == f.gen {
		return top
	}
	head := 0
	f.stk[0] = int32(i)
	for head >= 0 {
		i := f.stk[head]
		if f.flag[i] != f.gen {
			f.flag[i] = f.gen
			if k := f.pinv[i]; k >= 0 {
				f.pstk[head] = f.lptr[k]
			} else {
				f.pstk[head] = 0
			}
		}
		descended := false
		if k := f.pinv[i]; k >= 0 {
			for t := f.pstk[head]; t < f.lptr[k+1]; t++ {
				c := f.lrow[t]
				if f.flag[c] != f.gen {
					f.pstk[head] = t + 1
					head++
					f.stk[head] = c
					descended = true
					break
				}
			}
		}
		if !descended {
			top--
			f.pat[top] = i
			head--
		}
	}
	return top
}

// buildTransposes rebuilds the CSC transposes of L and U used by BTRAN.
func (f *basisLU) buildTransposes() {
	m := f.m
	cnt := f.cnt[:m+1]

	f.ltrow = grow32(f.ltrow, len(f.lrow))
	f.ltval = growF(f.ltval, len(f.lval))
	f.ltptr = grow32(f.ltptr, m+1)
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range f.lrow {
		cnt[r]++
	}
	f.ltptr[0] = 0
	for r := 0; r < m; r++ {
		f.ltptr[r+1] = f.ltptr[r] + cnt[r]
		cnt[r] = f.ltptr[r]
	}
	for k := 0; k < m; k++ {
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			r := f.lrow[t]
			f.ltrow[cnt[r]] = int32(k)
			f.ltval[cnt[r]] = f.lval[t]
			cnt[r]++
		}
	}

	f.utrow = grow32(f.utrow, len(f.urow))
	f.utval = growF(f.utval, len(f.uval))
	f.utptr = grow32(f.utptr, m+1)
	for i := range cnt {
		cnt[i] = 0
	}
	for _, r := range f.urow {
		cnt[r]++
	}
	f.utptr[0] = 0
	for r := 0; r < m; r++ {
		f.utptr[r+1] = f.utptr[r] + cnt[r]
		cnt[r] = f.utptr[r]
	}
	for k := 0; k < m; k++ {
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			r := f.urow[t]
			f.utrow[cnt[r]] = int32(k)
			f.utval[cnt[r]] = f.uval[t]
			cnt[r]++
		}
	}
}

func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ftran solves B x_out = x in place; x is a dense vector in row/position
// space. Zero entries are skipped throughout, so a sparse right-hand
// side (an entering column) touches only the factor entries its
// nonzeros reach.
func (f *basisLU) ftran(x []float64) {
	m := f.m
	w := f.w
	for k := 0; k < m; k++ {
		w[k] = x[f.prow[k]] // P·x
	}
	for k := 0; k < m; k++ { // L solve, forward scatter
		xk := w[k]
		if xk == 0 {
			continue
		}
		for t := f.lptr[k]; t < f.lptr[k+1]; t++ {
			w[f.lrow[t]] -= f.lval[t] * xk
		}
	}
	for k := m - 1; k >= 0; k-- { // U solve, backward scatter
		xk := w[k]
		if xk == 0 {
			continue
		}
		xk /= f.udiag[k]
		w[k] = xk
		for t := f.uptr[k]; t < f.uptr[k+1]; t++ {
			w[f.urow[t]] -= f.uval[t] * xk
		}
	}
	for k := 0; k < m; k++ {
		x[f.cord[k]] = w[k] // Q·w
	}
	// eta file, chronological: x_r /= α_r, then x_j -= α_j·x_r
	for e := 0; e < len(f.etaPos); e++ {
		r := f.etaPos[e]
		xr := x[r]
		if xr == 0 {
			continue
		}
		xr /= f.etaPiv[e]
		x[r] = xr
		for t := f.etaStart[e]; t < f.etaStart[e+1]; t++ {
			x[f.etaIdx[t]] -= f.etaVal[t] * xr
		}
	}
}

// btran solves B^T y_out = y in place; y is a dense vector in
// row/position space.
func (f *basisLU) btran(y []float64) {
	// eta transposes, reverse chronological:
	// y_r ← (y_r − Σ_{j≠r} α_j·y_j)/α_r
	for e := len(f.etaPos) - 1; e >= 0; e-- {
		r := f.etaPos[e]
		acc := y[r]
		for t := f.etaStart[e]; t < f.etaStart[e+1]; t++ {
			if v := y[f.etaIdx[t]]; v != 0 {
				acc -= f.etaVal[t] * v
			}
		}
		y[r] = acc / f.etaPiv[e]
	}
	m := f.m
	w := f.w
	for k := 0; k < m; k++ {
		w[k] = y[f.cord[k]] // Q^T·y
	}
	for k := 0; k < m; k++ { // U^T solve, forward scatter
		wk := w[k]
		if wk == 0 {
			continue
		}
		wk /= f.udiag[k]
		w[k] = wk
		for t := f.utptr[k]; t < f.utptr[k+1]; t++ {
			w[f.utrow[t]] -= f.utval[t] * wk
		}
	}
	for k := m - 1; k >= 0; k-- { // L^T solve, backward scatter
		wk := w[k]
		if wk == 0 {
			continue
		}
		for t := f.ltptr[k]; t < f.ltptr[k+1]; t++ {
			w[f.ltrow[t]] -= f.ltval[t] * wk
		}
	}
	for k := 0; k < m; k++ {
		y[f.prow[k]] = w[k] // P^T·w
	}
}

// appendEta records the pivot (position r, FTRAN'd entering column col)
// as a product-form update; returns the number of off-pivot entries
// appended. col is dense in position space.
func (f *basisLU) appendEta(r int, col []float64) int {
	added := 0
	for i, v := range col {
		if v != 0 && i != r {
			f.etaIdx = append(f.etaIdx, int32(i))
			f.etaVal = append(f.etaVal, v)
			added++
		}
	}
	f.etaPos = append(f.etaPos, int32(r))
	f.etaPiv = append(f.etaPiv, col[r])
	f.etaStart = append(f.etaStart, int32(len(f.etaIdx)))
	return added
}
