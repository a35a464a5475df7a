package lp

import (
	"context"
	"math"
)

// This file implements the sparse LU factorization behind the simplex
// engine's linear algebra. The basis matrix B — flow-conservation rows,
// via-adjacency rows, EOL rows, each with a handful of nonzeros — is
// factorized by Gaussian elimination with Markowitz pivot selection
// (minimizing predicted fill-in subject to a relative stability threshold),
// storing the elimination multipliers (L) and the reduced pivot rows (U) as
// index/value triangles. Basis exchanges do not refactorize: each pivot is
// folded into U by a Forrest-Tomlin update (ft.go), and the factorization is
// rebuilt only when the updates exceed their count or fill budget or a pivot
// is numerically unacceptable. FTRAN/BTRAN over this representation live in
// ftran.go.

const (
	// markowitzThreshold rejects pivot candidates smaller than this fraction
	// of the largest entry in their row (stability vs fill-in trade-off).
	markowitzThreshold = 0.05
	// pivotFloor is the absolute magnitude below which an entry can never
	// pivot; a step with no candidate above it declares the basis singular.
	pivotFloor = 1e-11
	// dropTol discards entries this small during elimination (cancellation
	// noise that would otherwise accumulate as structural fill).
	dropTol = 1e-14
	// etaPivotRel rejects a Forrest-Tomlin update whose new pivot is this
	// much smaller than the largest entry of the spike; the caller
	// refactorizes instead of compounding the error.
	etaPivotRel = 1e-8
)

// luFactor is a sparse LU factorization of one simplex basis plus the
// Forrest-Tomlin update state accumulated since. Rebuilt in place by
// factorize; all backing slices are reused across refactorizations.
type luFactor struct {
	m int

	// Pivot sequence: step k eliminated row prow[k] against basis position
	// (column) pcol[k].
	prow []int32
	pcol []int32

	// L: per-step elimination multipliers. The forward solve applies
	// x[lInd] -= lVal * x[prow[k]] for each entry of step k.
	lPtr []int32
	lInd []int32
	lVal []float64

	// U as factorized: pivot values per step plus the off-pivot entries of
	// each pivot row (urInd = basis position). ftInit copies it into the
	// dynamic Forrest-Tomlin form that the solves and updates work on.
	upiv  []float64
	urPtr []int32
	urInd []int32
	urVal []float64

	basisNNZ  int // nonzeros of the basis matrix at the last factorization
	factorNNZ int // nonzeros of L + U (incl. pivots) at the last factorization

	ft ftState // Forrest-Tomlin update state (ft.go)

	// ctx, if non-nil, is polled every ctxPollIters elimination steps; once
	// it is done factorize gives up as if the basis were singular. A large
	// basis takes longer to factorize than many simplex iterations.
	ctx context.Context

	// Test hooks (ft_test.go): force every update to be rejected, and make
	// the next factorize report the basis singular, exercising the recovery
	// ladder (update -> refactorize -> cold solve) deterministically.
	testRejectUpdates bool
	testFailFactorize bool

	// Factorization scratch, reused across calls.
	rwIdx   [][]int32
	rwVal   [][]float64
	colCnt  []int32
	colRows [][]int32
	rowDone []bool
	stepOf  []int32 // basis position -> elimination step
	acc     []float64
	accMark []int32
	oldMark []int32
	accList []int32
	epoch   int32
}

// reset prepares the factor for a basis of m rows, clearing prior state.
func (f *luFactor) reset(m int) {
	f.m = m
	f.prow = f.prow[:0]
	f.pcol = f.pcol[:0]
	f.lPtr = append(f.lPtr[:0], 0)
	f.lInd = f.lInd[:0]
	f.lVal = f.lVal[:0]
	f.upiv = f.upiv[:0]
	f.urPtr = append(f.urPtr[:0], 0)
	f.urInd = f.urInd[:0]
	f.urVal = f.urVal[:0]
}

// refactorReason attributes a refactorization trigger (Stats.Refactor*).
type refactorReason uint8

const (
	refactorNone           refactorReason = iota
	refactorEtaLen                        // update-count budget exhausted
	refactorFill                          // update-storage fill budget exhausted
	refactorPivotQuality                  // tiny pivot mid-iteration
	refactorUpdateRejected                // update rejected on spike-pivot quality
)

// refactorDue reports whether (and why) the update representation has
// outgrown its budget: ftUpdateCap exchanges, or the dynamic U plus its row
// etas holding more nonzeros than twice the factorization (spike fill-in
// degradation, at which point every FTRAN/BTRAN pays more for the updates
// than for the LU).
func (f *luFactor) refactorDue() refactorReason {
	if f.ft.updates >= ftUpdateCap {
		return refactorEtaLen
	}
	if f.ft.nnz+len(f.ft.etaMul) > 2*f.factorNNZ+4*f.m {
		return refactorFill
	}
	return refactorNone
}

// factorize rebuilds the LU factorization from the basis columns (basis[pos]
// names the column basic at position pos; colIdx/colVal are the column
// nonzeros by row). Returns false when the basis matrix is numerically
// singular. The update state is cleared — the factorization alone
// represents the basis afterwards.
func (f *luFactor) factorize(m int, basis []int, colIdx [][]int32, colVal [][]float64) bool {
	if f.testFailFactorize {
		f.testFailFactorize = false
		return false
	}
	f.reset(m)
	f.growScratch(m)

	// Assemble the working rows (col = basis position).
	nnz := 0
	for i := 0; i < m; i++ {
		f.rwIdx[i] = f.rwIdx[i][:0]
		f.rwVal[i] = f.rwVal[i][:0]
		f.colCnt[i] = 0
		f.colRows[i] = f.colRows[i][:0]
		f.rowDone[i] = false
	}
	for pos, j := range basis {
		for k, i := range colIdx[j] {
			v := colVal[j][k]
			if v == 0 {
				continue
			}
			f.rwIdx[i] = append(f.rwIdx[i], int32(pos))
			f.rwVal[i] = append(f.rwVal[i], v)
			f.colCnt[pos]++
			f.colRows[pos] = append(f.colRows[pos], int32(i))
			nnz++
		}
	}
	f.basisNNZ = nnz

	lo := 0 // rows below lo are all eliminated
	for step := 0; step < m; step++ {
		if f.ctx != nil && step%ctxPollIters == 0 && f.ctx.Err() != nil {
			return false
		}
		for f.rowDone[lo] {
			lo++
		}
		pr, pk, ok := f.selectPivot(lo, m)
		if !ok {
			return false
		}
		f.eliminate(pr, pk)
	}
	f.ftInit(m)
	f.factorNNZ = len(f.lVal) + len(f.urVal) + m
	return true
}

// selectPivot scans the active rows, from the first one (lo), for the entry
// minimizing the Markowitz count (rowLen-1)*(colCnt-1) among entries passing
// the relative stability threshold, breaking ties toward the larger
// magnitude. Returns the row and the entry's index within it. Starting at lo
// rather than row 0 keeps a factorization of singletons (the all-slack
// basis) linear in the row count.
func (f *luFactor) selectPivot(lo, m int) (pr int, pk int, ok bool) {
	bestCost := int64(math.MaxInt64)
	bestAbs := 0.0
	pr, pk = -1, -1
	for i := lo; i < m; i++ {
		if f.rowDone[i] {
			continue
		}
		row := f.rwVal[i]
		if len(row) == 0 {
			return -1, -1, false // empty active row: structurally singular
		}
		rmax := 0.0
		for _, v := range row {
			if a := math.Abs(v); a > rmax {
				rmax = a
			}
		}
		if rmax < pivotFloor {
			return -1, -1, false
		}
		floor := markowitzThreshold * rmax
		rl := int64(len(row) - 1)
		for k, v := range row {
			a := math.Abs(v)
			if a < floor || a < pivotFloor {
				continue
			}
			cost := rl * int64(f.colCnt[f.rwIdx[i][k]]-1)
			if cost < bestCost || (cost == bestCost && a > bestAbs) {
				bestCost, bestAbs, pr, pk = cost, a, i, k
			}
		}
		if bestCost == 0 {
			break // a zero-fill pivot (row or column singleton) cannot be beaten
		}
	}
	return pr, pk, pr >= 0
}

// eliminate performs one elimination step with pivot entry pk of row pr:
// the pivot row is emitted as a U row and subtracted (scaled) from every
// active row sharing its pivot column, recording the multipliers in L.
func (f *luFactor) eliminate(pr, pk int) {
	prowIdx := f.rwIdx[pr]
	prowVal := f.rwVal[pr]
	pc := prowIdx[pk]
	pv := prowVal[pk]

	f.prow = append(f.prow, int32(pr))
	f.pcol = append(f.pcol, pc)
	f.upiv = append(f.upiv, pv)
	for k, c := range prowIdx {
		if k != pk {
			f.urInd = append(f.urInd, c)
			f.urVal = append(f.urVal, prowVal[k])
		}
		f.colCnt[c]--
	}
	f.urPtr = append(f.urPtr, int32(len(f.urInd)))
	f.rowDone[pr] = true

	uLo := f.urPtr[len(f.urPtr)-2]
	uHi := f.urPtr[len(f.urPtr)-1]
	for _, ri := range f.colRows[pc] {
		i := int(ri)
		if f.rowDone[i] {
			continue
		}
		// Locate the pivot-column entry (colRows may hold stale rows whose
		// entry has since cancelled).
		kk := -1
		for k, c := range f.rwIdx[i] {
			if c == pc {
				kk = k
				break
			}
		}
		if kk == -1 {
			continue
		}
		mult := f.rwVal[i][kk] / pv
		f.lInd = append(f.lInd, int32(i))
		f.lVal = append(f.lVal, mult)
		f.mergeRow(i, kk, mult, uLo, uHi)
	}
	f.colRows[pc] = f.colRows[pc][:0]
	f.lPtr = append(f.lPtr, int32(len(f.lInd)))
}

// mergeRow applies row_i -= mult * pivotRow (off-pivot part in urInd/urVal
// [uLo,uHi)), dropping the pivot-column entry kk, via the epoch-stamped
// dense accumulator. Column counts and candidate lists track fill-in.
func (f *luFactor) mergeRow(i, kk int, mult float64, uLo, uHi int32) {
	f.epoch++
	if f.epoch == math.MaxInt32 {
		for j := range f.accMark {
			f.accMark[j] = 0
			f.oldMark[j] = 0
		}
		f.epoch = 1
	}
	ep := f.epoch
	f.accList = f.accList[:0]
	idx := f.rwIdx[i]
	val := f.rwVal[i]
	for k, c := range idx {
		if k == kk {
			continue // eliminated pivot-column entry
		}
		f.acc[c] = val[k]
		f.accMark[c] = ep
		f.oldMark[c] = ep
		f.accList = append(f.accList, c)
	}
	f.colCnt[idx[kk]]-- // the removed pivot-column entry
	for e := uLo; e < uHi; e++ {
		c := f.urInd[e]
		v := mult * f.urVal[e]
		if f.accMark[c] == ep {
			f.acc[c] -= v
		} else {
			f.acc[c] = -v
			f.accMark[c] = ep
			f.accList = append(f.accList, c)
		}
	}
	idx = idx[:0]
	val = val[:0]
	for _, c := range f.accList {
		v := f.acc[c]
		keep := math.Abs(v) > dropTol
		was := f.oldMark[c] == ep
		switch {
		case keep && !was: // fill-in
			f.colCnt[c]++
			f.colRows[c] = append(f.colRows[c], int32(i))
		case !keep && was: // cancellation
			f.colCnt[c]--
		}
		if keep {
			idx = append(idx, c)
			val = append(val, v)
		}
	}
	f.rwIdx[i] = idx
	f.rwVal[i] = val
}

// growScratch sizes the factorization workspaces for m rows.
func (f *luFactor) growScratch(m int) {
	if cap(f.rwIdx) < m {
		f.rwIdx = make([][]int32, m)
		f.rwVal = make([][]float64, m)
		f.colRows = make([][]int32, m)
	}
	f.rwIdx = f.rwIdx[:m]
	f.rwVal = f.rwVal[:m]
	f.colRows = f.colRows[:m]
	if cap(f.colCnt) < m {
		f.colCnt = make([]int32, m)
		f.rowDone = make([]bool, m)
		f.stepOf = make([]int32, m)
		f.acc = make([]float64, m)
		f.accMark = make([]int32, m)
		f.oldMark = make([]int32, m)
		f.accList = make([]int32, 0, m)
		f.epoch = 0
	}
	f.colCnt = f.colCnt[:m]
	f.rowDone = f.rowDone[:m]
	f.stepOf = f.stepOf[:m]
	f.acc = f.acc[:m]
	f.accMark = f.accMark[:m]
	f.oldMark = f.oldMark[:m]
}
