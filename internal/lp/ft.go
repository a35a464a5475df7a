package lp

import "math"

// This file implements the Forrest-Tomlin basis updates of the sparse LU
// engine in factor.go. Instead of leaving L and U frozen and appending one
// product-form eta per exchange (which every later FTRAN/BTRAN would pay
// for), the scheme edits U itself: the FTRAN-transformed entering column
// becomes a spike replacing the leaving column of U, the spiked row/column
// pair is cyclically permuted to the end of the elimination order, and the
// resulting last-row spike is eliminated with one sparse row eta (recorded
// between L and U in the factor product, B = L R1..Rk U). U stays
// triangular in the permuted order and near factorization density, so the
// solves do not degrade as updates accumulate — which is what lets the
// refactorization interval stretch to ftUpdateCap.
//
// The mutable U lives in per-slot growable row arrays plus per-column
// scatter lists with generation-stamped lazy invalidation: clearing a row
// bumps its generation, orphaning its column-list entries in place instead
// of searching them out. A "slot" is an elimination step of the underlying
// factorization; its pivot row (prow) and basis position (pcol) never
// change, only its position in the elimination order (ftSeq/ftPosOf) does.

const (
	// ftUpdateCap bounds the updates absorbed between refactorizations. FT
	// solves pay only for the short row etas, not one gather per exchange,
	// so long intervals are where the scheme wins.
	ftUpdateCap = 192
)

// ftState is the Forrest-Tomlin representation of the updated U factor and
// its row-eta file, embedded in luFactor and rebuilt by ftInit at every
// refactorization.
type ftState struct {
	updates int // exchanges absorbed since the last refactorization

	piv    []float64 // per-slot pivot value (replaces upiv)
	rowInd [][]int32 // per-slot off-pivot row entries: basis positions...
	rowVal [][]float64
	rowGen []int32 // per-slot generation; bumped when the row is cleared

	// Column scatter lists (per basis position): (slot, value, generation)
	// triples, live while the generation matches rowGen[slot].
	colSlot [][]int32
	colVal  [][]float64
	colGen  [][]int32

	seq   []int32 // slot visit order (U is upper triangular in this order)
	posOf []int32 // slot -> position in seq

	// Row-eta file (the R factors): record e zeroes row etaR[e] using rows
	// etaRow with multipliers etaMul, span etaPtr[e]..etaPtr[e+1].
	etaR   []int32
	etaPtr []int32
	etaRow []int32
	etaMul []float64

	nnz int // current off-pivot nonzeros of the dynamic U

	// Arenas backing the per-slot row arrays and per-column scatter lists:
	// each slot/column is carved out with a little spare capacity, so a fresh
	// factorization costs a handful of allocations instead of O(m), and only
	// rows that outgrow their spare fall back to individual heap slices.
	rowIndArena  []int32
	rowValArena  []float64
	colSlotArena []int32
	colValArena  []float64
	colGenArena  []int32
	colCnt       []int32 // scratch: per-column entry counts for arena carving

	spike  spVec   // update scratch: spike in slot space
	acc    spVec   // update scratch: row-spike residual in column space
	muSlot []int32 // update scratch: provisional eliminations
	muVal  []float64
}

// ftInit converts the freshly built static factorization into the dynamic
// Forrest-Tomlin form, resetting all update state. Backing arrays are reused
// across refactorizations.
func (f *luFactor) ftInit(m int) {
	ft := &f.ft
	ft.updates = 0
	if cap(ft.piv) < m {
		ft.piv = make([]float64, m)
		ft.rowGen = make([]int32, m)
		ft.seq = make([]int32, m)
		ft.posOf = make([]int32, m)
	}
	ft.piv = ft.piv[:m]
	ft.rowGen = ft.rowGen[:m]
	ft.seq = ft.seq[:m]
	ft.posOf = ft.posOf[:m]
	if cap(ft.rowInd) < m {
		ft.rowInd = make([][]int32, m)
		ft.rowVal = make([][]float64, m)
		ft.colSlot = make([][]int32, m)
		ft.colVal = make([][]float64, m)
		ft.colGen = make([][]int32, m)
	}
	ft.rowInd = ft.rowInd[:m]
	ft.rowVal = ft.rowVal[:m]
	ft.colSlot = ft.colSlot[:m]
	ft.colVal = ft.colVal[:m]
	ft.colGen = ft.colGen[:m]

	for k := 0; k < m; k++ {
		ft.piv[k] = f.upiv[k]
		ft.rowGen[k] = 0
		ft.seq[k] = int32(k)
		ft.posOf[k] = int32(k)
		f.stepOf[f.pcol[k]] = int32(k)
	}

	// Carve the per-slot rows and per-column lists out of the shared arenas,
	// each with a little spare capacity so the common few-entry growth during
	// updates stays in place. Only a slot that outgrows its spare reallocates
	// (individually, via append's normal growth).
	const spare = 4
	nnz := len(f.urInd)
	need := nnz + spare*m
	if cap(ft.rowIndArena) < need {
		ft.rowIndArena = make([]int32, need)
		ft.rowValArena = make([]float64, need)
		ft.colSlotArena = make([]int32, need)
		ft.colValArena = make([]float64, need)
		ft.colGenArena = make([]int32, need)
	}
	if cap(ft.colCnt) < m {
		ft.colCnt = make([]int32, m)
	}
	ft.colCnt = ft.colCnt[:m]
	for i := range ft.colCnt {
		ft.colCnt[i] = 0
	}
	for _, c := range f.urInd {
		ft.colCnt[c]++
	}
	off := 0
	for k := 0; k < m; k++ {
		lo, hi := f.urPtr[k], f.urPtr[k+1]
		ln := int(hi - lo)
		capEnd := off + ln + spare
		ft.rowInd[k] = ft.rowIndArena[off : off+ln : capEnd]
		ft.rowVal[k] = ft.rowValArena[off : off+ln : capEnd]
		copy(ft.rowInd[k], f.urInd[lo:hi])
		copy(ft.rowVal[k], f.urVal[lo:hi])
		off = capEnd
	}
	off = 0
	for c := 0; c < m; c++ {
		capEnd := off + int(ft.colCnt[c]) + spare
		ft.colSlot[c] = ft.colSlotArena[off:off:capEnd]
		ft.colVal[c] = ft.colValArena[off:off:capEnd]
		ft.colGen[c] = ft.colGenArena[off:off:capEnd]
		off = capEnd
	}
	for k := 0; k < m; k++ {
		lo, hi := f.urPtr[k], f.urPtr[k+1]
		for e := lo; e < hi; e++ {
			c := f.urInd[e]
			ft.colSlot[c] = append(ft.colSlot[c], int32(k))
			ft.colVal[c] = append(ft.colVal[c], f.urVal[e])
			ft.colGen[c] = append(ft.colGen[c], 0)
		}
	}
	ft.etaR = ft.etaR[:0]
	ft.etaPtr = append(ft.etaPtr[:0], 0)
	ft.etaRow = ft.etaRow[:0]
	ft.etaMul = ft.etaMul[:0]
	ft.nnz = len(f.urInd)
	ft.spike.grow(m)
	ft.acc.grow(m)
}

// update folds one basis exchange into the dynamic factorization: w is the
// FTRAN-transformed entering column (indexed by basis position) and leave the
// basis position it replaces. Returns false — leaving the representation
// untouched — when the new pivot of the spiked slot is too small relative to
// the spike, in which case the caller must refactorize (the basis itself,
// already exchanged, stays valid).
func (f *luFactor) update(leave int32, w *spVec) bool {
	if f.testRejectUpdates {
		return false
	}
	ft := &f.ft
	m := f.m
	t := f.stepOf[leave] // the leaving position's slot keeps its identity
	pt := int(ft.posOf[t])

	// Spike v = U w in slot space, column-driven over w's support so near-unit
	// columns stay cheap. U is the *current* dynamic factor: by induction
	// B = L R1..Rk U, so the spike computed here is exactly the column that
	// must replace column `leave` of U for the exchanged basis.
	sp := &ft.spike
	sp.reset()
	for _, ci := range w.ind {
		wc := w.val[ci]
		if wc == 0 {
			continue
		}
		sc := f.stepOf[ci]
		sp.add(sc, ft.piv[sc]*wc)
		slots := ft.colSlot[ci]
		gens := ft.colGen[ci]
		vals := ft.colVal[ci]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] {
				continue
			}
			sp.add(s2, vals[q]*wc)
		}
	}
	vmax := 0.0
	for _, k := range sp.ind {
		if a := math.Abs(sp.val[k]); a > vmax {
			vmax = a
		}
	}

	// Eliminate the row spike: the old row t, moved to the end of the order,
	// has entries in columns of the slots after position pt. Cascade through
	// those slots in order, recording the multipliers; the surviving entry in
	// the spike column is the new pivot delta.
	acc := &ft.acc
	acc.reset()
	maxPos := pt
	{
		idx := ft.rowInd[t]
		vals := ft.rowVal[t]
		for q := range idx {
			acc.set(idx[q], vals[q])
			if p := int(ft.posOf[f.stepOf[idx[q]]]); p > maxPos {
				maxPos = p
			}
		}
	}
	delta := sp.val[t]
	ft.muSlot = ft.muSlot[:0]
	ft.muVal = ft.muVal[:0]
	for p := pt + 1; p <= maxPos; p++ {
		s := ft.seq[p]
		r := acc.val[f.pcol[s]]
		if math.Abs(r) <= dropTol {
			continue
		}
		mu := r / ft.piv[s]
		ft.muSlot = append(ft.muSlot, s)
		ft.muVal = append(ft.muVal, mu)
		delta -= mu * sp.val[s]
		idx := ft.rowInd[s]
		vals := ft.rowVal[s]
		for q := range idx {
			acc.add(idx[q], -mu*vals[q])
			if p2 := int(ft.posOf[f.stepOf[idx[q]]]); p2 > maxPos {
				maxPos = p2
			}
		}
	}
	if math.Abs(delta) < etaPivotRel*vmax || delta == 0 {
		return false
	}

	// Commit. Old entries of column `leave` (all in rows ordered before pt)
	// are removed from their rows; the column is rebuilt from the spike.
	{
		slots := ft.colSlot[leave]
		gens := ft.colGen[leave]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] || s2 == t {
				continue
			}
			idx := ft.rowInd[s2]
			vals := ft.rowVal[s2]
			for k := range idx {
				if idx[k] == leave {
					last := len(idx) - 1
					idx[k] = idx[last]
					vals[k] = vals[last]
					ft.rowInd[s2] = idx[:last]
					ft.rowVal[s2] = vals[:last]
					ft.nnz--
					break
				}
			}
		}
		ft.colSlot[leave] = ft.colSlot[leave][:0]
		ft.colVal[leave] = ft.colVal[leave][:0]
		ft.colGen[leave] = ft.colGen[leave][:0]
	}
	// Row t collapses to the single pivot entry delta; bumping its generation
	// lazily invalidates its old column-list entries.
	ft.nnz -= len(ft.rowInd[t])
	ft.rowInd[t] = ft.rowInd[t][:0]
	ft.rowVal[t] = ft.rowVal[t][:0]
	ft.rowGen[t]++
	ft.piv[t] = delta
	// Spike entries land as column-`leave` entries of their rows (always the
	// last column in the new order, so triangularity holds for every row).
	for _, k := range sp.ind {
		if k == t {
			continue
		}
		v := sp.val[k]
		if math.Abs(v) <= dropTol {
			continue
		}
		ft.rowInd[k] = append(ft.rowInd[k], leave)
		ft.rowVal[k] = append(ft.rowVal[k], v)
		ft.colSlot[leave] = append(ft.colSlot[leave], k)
		ft.colVal[leave] = append(ft.colVal[leave], v)
		ft.colGen[leave] = append(ft.colGen[leave], ft.rowGen[k])
		ft.nnz++
	}
	// Record the row eta (in row space: it acts between L and U).
	if len(ft.muSlot) > 0 {
		ft.etaR = append(ft.etaR, f.prow[t])
		for q, s := range ft.muSlot {
			ft.etaRow = append(ft.etaRow, f.prow[s])
			ft.etaMul = append(ft.etaMul, ft.muVal[q])
		}
		ft.etaPtr = append(ft.etaPtr, int32(len(ft.etaRow)))
	}
	// Cyclic permutation: slot t moves to the end of the order.
	copy(ft.seq[pt:], ft.seq[pt+1:])
	ft.seq[m-1] = t
	for p := pt; p < m; p++ {
		ft.posOf[ft.seq[p]] = int32(p)
	}
	ft.updates++
	return true
}

// ftApplyEtas applies the row-eta file to a row-space vector between the L
// forward pass and the U solve of an FTRAN.
func (f *luFactor) ftApplyEtas(a *spVec) {
	ft := &f.ft
	for e := 0; e < len(ft.etaR); e++ {
		s := 0.0
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			s += ft.etaMul[q] * a.val[ft.etaRow[q]]
		}
		if s != 0 {
			a.add(ft.etaR[e], -s)
		}
	}
}

// ftranFT is the FTRAN U stage over the dynamic factor: back substitution in
// reverse elimination order, scattering each solved component through its
// column list. Input a is in row space (L pass and row etas already applied);
// the result is indexed by basis position.
func (f *luFactor) ftranFT(a, out *spVec) {
	ft := &f.ft
	out.reset()
	for p := f.m - 1; p >= 0; p-- {
		s := ft.seq[p]
		t := a.val[f.prow[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		c := f.pcol[s]
		out.set(c, t)
		slots := ft.colSlot[c]
		gens := ft.colGen[c]
		vals := ft.colVal[c]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] {
				continue
			}
			a.add(f.prow[s2], -vals[q]*t)
		}
	}
}

// btranFT is the BTRAN U stage plus transposed row etas: solve z U = c in
// elimination order through the dynamic rows, then apply the eta file
// transposed in reverse. Input c is indexed by basis position; the result
// (in row space) still needs the transposed L pass.
func (f *luFactor) btranFT(c, out *spVec) {
	ft := &f.ft
	out.reset()
	for p := 0; p < f.m; p++ {
		s := ft.seq[p]
		t := c.val[f.pcol[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		out.set(f.prow[s], t)
		idx := ft.rowInd[s]
		vals := ft.rowVal[s]
		for q := range idx {
			c.add(idx[q], -vals[q]*t)
		}
	}
	for e := len(ft.etaR) - 1; e >= 0; e-- {
		t := out.val[ft.etaR[e]]
		if t == 0 {
			continue
		}
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			out.add(ft.etaRow[q], -ft.etaMul[q]*t)
		}
	}
}

// ftranDenseFT mirrors ftranFT for a dense right-hand side (the periodic
// basic-value refresh).
func (f *luFactor) ftranDenseFT(a, out []float64) {
	ft := &f.ft
	for e := 0; e < len(ft.etaR); e++ {
		s := 0.0
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			s += ft.etaMul[q] * a[ft.etaRow[q]]
		}
		a[ft.etaR[e]] -= s
	}
	for i := range out[:f.m] {
		out[i] = 0
	}
	for p := f.m - 1; p >= 0; p-- {
		s := ft.seq[p]
		t := a[f.prow[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		c := f.pcol[s]
		out[c] = t
		slots := ft.colSlot[c]
		gens := ft.colGen[c]
		vals := ft.colVal[c]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] {
				continue
			}
			a[f.prow[s2]] -= vals[q] * t
		}
	}
}
