package lp

// This file implements the sparse triangular solves of the LU-factorized
// simplex basis: FTRAN (solve B x = a, the pivot-column transform) and BTRAN
// (solve y B = c, the dual/row transform), plus the sparse-vector workspace
// they operate on. Both exploit right-hand-side hyper-sparsity: the vectors
// fed through them are mostly unit or near-unit (an entering column with a
// handful of nonzeros, the e_r row selector of the dual ratio test, a phase-2
// cost vector that is zero on every slack), so the solves skip all pivot
// steps whose input entry is zero and touch only the nonzero pattern.

// spVec is a sparse vector workspace: a dense value array paired with an
// unordered index list of the tracked nonzero positions. Entries outside the
// index list are guaranteed zero. The stamp/epoch pair makes membership
// O(1) without clearing stamps between uses, so resetting costs only the
// previous nonzero count — the invariant the hyper-sparse solves rely on.
type spVec struct {
	val   []float64
	ind   []int32
	stamp []int32
	epoch int32
}

// grow sizes the workspace for vectors of length m, resetting it.
func (v *spVec) grow(m int) {
	if cap(v.val) < m {
		v.val = make([]float64, m)
		v.stamp = make([]int32, m)
		v.ind = make([]int32, 0, m)
		v.epoch = 1
		return
	}
	v.val = v.val[:m]
	v.stamp = v.stamp[:m]
	v.reset()
}

// reset clears the tracked entries (only those, not the full array).
func (v *spVec) reset() {
	for _, i := range v.ind {
		v.val[i] = 0
	}
	v.ind = v.ind[:0]
	v.epoch++
	if v.epoch == 0 { // stamp wrap: invalidate everything
		for i := range v.stamp {
			v.stamp[i] = -1
		}
		v.epoch = 1
	}
}

// set installs value x at position i (tracking it exactly once).
func (v *spVec) set(i int32, x float64) {
	if v.stamp[i] != v.epoch {
		v.stamp[i] = v.epoch
		v.ind = append(v.ind, i)
	}
	v.val[i] = x
}

// add accumulates x into position i (tracking it exactly once).
func (v *spVec) add(i int32, x float64) {
	if v.stamp[i] != v.epoch {
		v.stamp[i] = v.epoch
		v.ind = append(v.ind, i)
	}
	v.val[i] += x
}

// ftran solves B x = a for the current basis B = L R1..Rk U (the LU
// factorization with its Forrest-Tomlin row etas and dynamic U). The input a
// is indexed by row; the result is indexed by basis position and written to
// out (which is reset first). a is consumed (mutated in place).
func (f *luFactor) ftran(a, out *spVec) {
	m := f.m
	// Forward pass: replay the row eliminations of the factorization on the
	// right-hand side. A zero pivot entry means the whole step is a no-op —
	// the hyper-sparsity shortcut that makes near-unit columns O(path), not
	// O(m^2).
	for k := 0; k < m; k++ {
		t := a.val[f.prow[k]]
		if t == 0 {
			continue
		}
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			a.add(f.lInd[e], -f.lVal[e]*t)
		}
	}
	// Row etas between L and U, then the dynamic U.
	f.ftApplyEtas(a)
	f.ftranFT(a, out)
}

// btran solves y B = c for the current basis. The input c is indexed by
// basis position; the result is indexed by row and written to out (reset
// first). c is consumed.
func (f *luFactor) btran(c, out *spVec) {
	// Dynamic U solve plus transposed row etas, then the transposed L pass.
	f.btranFT(c, out)
	// Transposed elimination pass: y[prow[k]] -= sum L_k[i] * y[i], in
	// reverse pivot order. Each step is a short gather over the stored
	// multipliers.
	for k := f.m - 1; k >= 0; k-- {
		s := 0.0
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			s += f.lVal[e] * out.val[f.lInd[e]]
		}
		if s != 0 {
			out.add(f.prow[k], -s)
		}
	}
}

// ftranDense solves B x = a for a dense right-hand side (the periodic basic-
// value refresh), writing the result to out. a is consumed.
func (f *luFactor) ftranDense(a, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		t := a[f.prow[k]]
		if t == 0 {
			continue
		}
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			a[f.lInd[e]] -= f.lVal[e] * t
		}
	}
	f.ftranDenseFT(a, out)
}
