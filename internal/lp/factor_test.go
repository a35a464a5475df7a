package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randBasisColumns builds m deterministic, diagonally dominant sparse columns
// (so the matrix is guaranteed nonsingular) plus extra off-basis columns that
// basis-update tests can bring in. Returns the column arrays and the identity
// basis over the first m columns.
func randBasisColumns(rng *rand.Rand, m, extra int) (colIdx [][]int32, colVal [][]float64, basis []int) {
	ncols := m + extra
	colIdx = make([][]int32, ncols)
	colVal = make([][]float64, ncols)
	for j := 0; j < m; j++ {
		colIdx[j] = append(colIdx[j], int32(j))
		colVal[j] = append(colVal[j], 4+rng.Float64())
		for t := 0; t < 3; t++ {
			i := rng.Intn(m)
			if i == j {
				continue
			}
			dup := false
			for _, e := range colIdx[j] {
				if e == int32(i) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			colIdx[j] = append(colIdx[j], int32(i))
			colVal[j] = append(colVal[j], rng.Float64()*2-1)
		}
	}
	for j := m; j < ncols; j++ {
		used := map[int]bool{}
		for t := 0; t < 4; t++ {
			i := rng.Intn(m)
			if used[i] {
				continue
			}
			used[i] = true
			colIdx[j] = append(colIdx[j], int32(i))
			colVal[j] = append(colVal[j], rng.Float64()*2-1)
		}
		if len(colIdx[j]) == 0 {
			colIdx[j] = append(colIdx[j], int32(rng.Intn(m)))
			colVal[j] = append(colVal[j], 1)
		}
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return colIdx, colVal, basis
}

// mulBasis computes B x for x indexed by basis position, result by row.
func mulBasis(m int, basis []int, colIdx [][]int32, colVal [][]float64, x []float64) []float64 {
	out := make([]float64, m)
	for pos, j := range basis {
		v := x[pos]
		if v == 0 {
			continue
		}
		for k, i := range colIdx[j] {
			out[i] += colVal[j][k] * v
		}
	}
	return out
}

// TestLUFactorizeSolves checks the FTRAN/BTRAN contracts against direct
// matrix-vector products: x = ftran(a) must satisfy B x = a, and
// y = btran(c) must satisfy y' B = c'.
func TestLUFactorizeSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := 3 + rng.Intn(40)
		colIdx, colVal, basis := randBasisColumns(rng, m, 0)
		f := &luFactor{}
		if !f.factorize(m, basis, colIdx, colVal) {
			t.Fatalf("trial %d: factorize declared a dominant matrix singular", trial)
		}

		var a, out spVec
		a.grow(m)
		out.grow(m)

		// FTRAN with a sparse rhs.
		a.reset()
		rhs := make([]float64, m)
		for k := 0; k < 1+rng.Intn(3); k++ {
			i := int32(rng.Intn(m))
			v := rng.Float64()*4 - 2
			a.add(i, v)
			rhs[i] += v
		}
		f.ftran(&a, &out)
		x := make([]float64, m)
		for _, i := range out.ind {
			x[i] = out.val[i]
		}
		got := mulBasis(m, basis, colIdx, colVal, x)
		for i := 0; i < m; i++ {
			if math.Abs(got[i]-rhs[i]) > 1e-8 {
				t.Fatalf("trial %d m=%d: FTRAN residual %g at row %d", trial, m, got[i]-rhs[i], i)
			}
		}

		// BTRAN with a sparse rhs (indexed by basis position).
		a.reset()
		c := make([]float64, m)
		for k := 0; k < 1+rng.Intn(3); k++ {
			i := int32(rng.Intn(m))
			v := rng.Float64()*4 - 2
			a.add(i, v)
			c[i] += v
		}
		f.btran(&a, &out)
		y := make([]float64, m)
		for _, i := range out.ind {
			y[i] = out.val[i]
		}
		for pos, j := range basis {
			dot := 0.0
			for k, i := range colIdx[j] {
				dot += y[i] * colVal[j][k]
			}
			if math.Abs(dot-c[pos]) > 1e-8 {
				t.Fatalf("trial %d m=%d: BTRAN residual %g at position %d", trial, m, dot-c[pos], pos)
			}
		}
	}
}

// TestFactorizeStopsOnDoneCtx: a done context fails the factorization as a
// singular basis would, and the same scratch factorizes once it is cleared.
func TestFactorizeStopsOnDoneCtx(t *testing.T) {
	colIdx, colVal, basis := randBasisColumns(rand.New(rand.NewSource(3)), 200, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &luFactor{ctx: ctx}
	if f.factorize(200, basis, colIdx, colVal) {
		t.Fatal("factorize under a done context succeeded")
	}
	f.ctx = nil
	if !f.factorize(200, basis, colIdx, colVal) {
		t.Fatal("factorize after the context was cleared failed")
	}
}

// markowitzScan is selectPivot's test oracle: the Markowitz search as a scan
// of every active row from lo, stopping at the first row that holds a
// zero-count pivot and failing at the first singular row.
func (f *luFactor) markowitzScan(lo, m int) (pr int, pk int, ok bool) {
	bestCost := int64(math.MaxInt64)
	bestAbs := 0.0
	pr, pk = -1, -1
	for i := lo; i < m; i++ {
		if f.rowDone[i] {
			continue
		}
		row := f.rwVal[i]
		if len(row) == 0 {
			return -1, -1, false
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
			break
		}
	}
	return pr, pk, pr >= 0
}

// trickyBasisColumns builds an m-column basis row by row from a palette of
// magnitudes around the stability threshold (5% of the row maximum) and the
// pivot floor, with some rows exact power-of-two multiples of earlier rows
// (elimination cancels them to an empty row, or to a singleton when one
// entry is added) and some rows all below the floor. Most such bases are
// singular; the rest pivot through near-threshold entries.
func trickyBasisColumns(rng *rand.Rand, m int) (colIdx [][]int32, colVal [][]float64, basis []int) {
	palette := []float64{1, 0.5, 3, 0.05, 0.05 * (1 - 1e-12), 0.05 * (1 + 1e-12), 2e-11, 0.9e-11}
	rows := make([][]int32, m)
	vals := make([][]float64, m)
	put := func(i int, c int32, v float64) {
		for k, e := range rows[i] {
			if e == c {
				vals[i][k] = v
				return
			}
		}
		rows[i] = append(rows[i], c)
		vals[i] = append(vals[i], v)
	}
	for i := 0; i < m; i++ {
		switch kind := rng.Intn(8); {
		case kind < 2 && i > 0: // exact multiple of an earlier row (+1 entry)
			src := rng.Intn(i)
			scale := math.Ldexp(1, rng.Intn(5)-2)
			for k, c := range rows[src] {
				put(i, c, vals[src][k]*scale)
			}
			if kind == 1 {
				put(i, int32(rng.Intn(m)), 1)
			}
		case kind == 2: // every entry below the pivot floor
			for k := 0; k < 1+rng.Intn(3); k++ {
				put(i, int32(rng.Intn(m)), 0.5e-11)
			}
		default:
			put(i, int32(i), 1)
			for k := 0; k < rng.Intn(4); k++ {
				v := palette[rng.Intn(len(palette))]
				if rng.Intn(2) == 0 {
					v = -v
				}
				put(i, int32(rng.Intn(m)), v)
			}
		}
	}
	colIdx = make([][]int32, m)
	colVal = make([][]float64, m)
	for i := range rows {
		for k, c := range rows[i] {
			colIdx[c] = append(colIdx[c], int32(i))
			colVal[c] = append(colVal[c], vals[i][k])
		}
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return colIdx, colVal, basis
}

// smallIntBasisColumns builds an m-column basis with 2-3 entries per row,
// each 1 or 2: eliminations cancel single entries exactly, which turns
// entries of rows that are not being merged into column singletons.
func smallIntBasisColumns(rng *rand.Rand, m int) (colIdx [][]int32, colVal [][]float64, basis []int) {
	colIdx = make([][]int32, m)
	colVal = make([][]float64, m)
	for i := 0; i < m; i++ {
		used := map[int]bool{}
		for k := 0; k < 2+rng.Intn(2); k++ {
			c := rng.Intn(m)
			if used[c] {
				continue
			}
			used[c] = true
			colIdx[c] = append(colIdx[c], int32(i))
			colVal[c] = append(colVal[c], float64(1+rng.Intn(2)))
		}
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return colIdx, colVal, basis
}

// pathBasisColumns builds the worst case of a rescanning Markowitz search:
// a path-structured (bidiagonal) basis of m rows. Path row p holds columns
// p and p+1, the last path row only column m-1 (a row singleton), and
// column 0 appears only in path row 0 (a column singleton). The
// row-singleton end is numbered m-2, m-3, ..., 0 inwards and path row 0 is
// m-1, so the two frontier rows of the elimination always carry the
// highest active indices: a scan from the first active row visits every
// active row on every step, about m*m/2 rows in all.
func pathBasisColumns(m int) (colIdx [][]int32, colVal [][]float64, basis []int) {
	rowOf := func(p int) int32 {
		if p == 0 {
			return int32(m - 1)
		}
		return int32(p - 1)
	}
	colIdx = make([][]int32, m)
	colVal = make([][]float64, m)
	for c := 0; c < m; c++ {
		if c > 0 {
			colIdx[c] = append(colIdx[c], rowOf(c-1))
			colVal[c] = append(colVal[c], 0.5)
		}
		colIdx[c] = append(colIdx[c], rowOf(c))
		colVal[c] = append(colVal[c], 1)
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return colIdx, colVal, basis
}

// TestMarkowitzMatchesScan runs the elimination with selectPivot and, before
// every step, its oracle markowitzScan on the same state: both must name the
// same pivot row and entry and give the same singular verdict. The
// production factorize must then produce the same prow/pcol/upiv sequence
// and verdict. Bases: diagonally dominant random ones at several m, bases
// built around the stability threshold, the pivot floor and exact
// cancellation (mostly singular), small-integer bases whose cancellations
// make column singletons, and the path basis.
func TestMarkowitzMatchesScan(t *testing.T) {
	type basisCase struct {
		name            string
		m               int
		colIdx          [][]int32
		colVal          [][]float64
		basis           []int
		wantNonsingular bool
	}
	rng := rand.New(rand.NewSource(17))
	var cases []basisCase
	for _, m := range []int{1, 2, 5, 20, 100, 400} {
		for trial := 0; trial < 4; trial++ {
			ci, cv, b := randBasisColumns(rng, m, 0)
			cases = append(cases, basisCase{"dominant", m, ci, cv, b, true})
		}
	}
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(30)
		ci, cv, b := trickyBasisColumns(rng, m)
		cases = append(cases, basisCase{"tricky", m, ci, cv, b, false})
	}
	for trial := 0; trial < 1000; trial++ {
		m := 3 + rng.Intn(12)
		ci, cv, b := smallIntBasisColumns(rng, m)
		cases = append(cases, basisCase{"small-int", m, ci, cv, b, false})
	}
	ci, cv, b := pathBasisColumns(300)
	cases = append(cases, basisCase{"path", 300, ci, cv, b, true})

	var zeroCost, scanned, singular, nonsingular int
	for n, tc := range cases {
		f := &luFactor{}
		f.assemble(tc.m, tc.basis, tc.colIdx, tc.colVal)
		ok := true
		lo := 0
		for step := 0; step < tc.m && ok; step++ {
			for f.rowDone[lo] {
				lo++
			}
			wr, wk, wok := f.markowitzScan(lo, tc.m)
			pr, pk, gok := f.selectPivot(lo, tc.m)
			if pr != wr || pk != wk || gok != wok {
				t.Fatalf("case %d (%s, m=%d) step %d: selectPivot (%d,%d,%v), scan (%d,%d,%v)",
					n, tc.name, tc.m, step, pr, pk, gok, wr, wk, wok)
			}
			ok = gok
			if !ok {
				break
			}
			if len(f.rwIdx[pr]) == 1 || f.colCnt[f.rwIdx[pr][pk]] == 1 {
				zeroCost++
			} else {
				scanned++
			}
			f.eliminate(pr, pk)
		}
		if ok {
			nonsingular++
		} else {
			singular++
		}
		if tc.wantNonsingular && !ok {
			t.Fatalf("case %d (%s, m=%d): declared singular", n, tc.name, tc.m)
		}

		g := &luFactor{}
		if got := g.factorize(tc.m, tc.basis, tc.colIdx, tc.colVal); got != ok {
			t.Fatalf("case %d (%s, m=%d): factorize %v, stepwise %v", n, tc.name, tc.m, got, ok)
		}
		if !ok {
			continue
		}
		for k := range f.prow {
			if g.prow[k] != f.prow[k] || g.pcol[k] != f.pcol[k] || g.upiv[k] != f.upiv[k] {
				t.Fatalf("case %d (%s, m=%d): step %d pivots (%d,%d,%g), stepwise (%d,%d,%g)",
					n, tc.name, tc.m, k, g.prow[k], g.pcol[k], g.upiv[k], f.prow[k], f.pcol[k], f.upiv[k])
			}
		}
	}
	t.Logf("%d zero-count steps, %d full-scan steps, %d singular and %d nonsingular bases",
		zeroCost, scanned, singular, nonsingular)
	if zeroCost == 0 || scanned == 0 || singular == 0 || nonsingular == 0 {
		t.Fatalf("coverage: %d zero-count steps, %d full-scan steps, %d singular and %d nonsingular bases",
			zeroCost, scanned, singular, nonsingular)
	}
}

// TestFactorizeLinearWork pins the Markowitz search's work on the path
// basis, where a scan of every active row per step visits about m*m/2
// rows: selectPivot must examine at most 2*(m+nnz) rows in all.
func TestFactorizeLinearWork(t *testing.T) {
	const m = 20000
	colIdx, colVal, basis := pathBasisColumns(m)
	f := &luFactor{}
	if !f.factorize(m, basis, colIdx, colVal) {
		t.Fatal("path basis declared singular")
	}
	t.Logf("m=%d nnz=%d: selectPivot examined %d rows", m, f.basisNNZ, f.examined)
	if limit := 2 * (m + f.basisNNZ); f.examined > limit {
		t.Fatalf("selectPivot examined %d rows, want <= %d (2*(m+nnz))", f.examined, limit)
	}
}

// TestFTUpdateMatchesRefactorize performs a chain of basis exchanges
// through Forrest-Tomlin updates and, after every step, compares FTRAN and
// BTRAN through the updated factorization against a fresh factorization of
// the same exchanged basis, and checks the FTRAN contract B x = a directly —
// the invariant the simplex pivot loop depends on.
func TestFTUpdateMatchesRefactorize(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	updates := 0
	for trial := 0; trial < 20; trial++ {
		m := 5 + rng.Intn(30)
		extra := 10
		colIdx, colVal, basis := randBasisColumns(rng, m, extra)
		f := &luFactor{}
		if !f.factorize(m, basis, colIdx, colVal) {
			t.Fatalf("trial %d: initial factorize failed", trial)
		}

		var a, w, out, fresh spVec
		a.grow(m)
		w.grow(m)
		out.grow(m)
		fresh.grow(m)
		ref := &luFactor{}
		// solve runs one FTRAN (or BTRAN) of the same sparse rhs through the
		// updated and the fresh factorization, returning both results.
		solve := func(btran bool) (got, want []float64, rhs []float64) {
			rhs = make([]float64, m)
			for k := 0; k < 2; k++ {
				rhs[rng.Intn(m)] += rng.Float64()*2 - 1
			}
			load := func() {
				a.reset()
				for i, v := range rhs {
					if v != 0 {
						a.set(int32(i), v)
					}
				}
			}
			load()
			if btran {
				f.btran(&a, &out)
			} else {
				f.ftran(&a, &out)
			}
			load()
			if btran {
				ref.btran(&a, &fresh)
			} else {
				ref.ftran(&a, &fresh)
			}
			got, want = make([]float64, m), make([]float64, m)
			for _, i := range out.ind {
				got[i] = out.val[i]
			}
			for _, i := range fresh.ind {
				want[i] = fresh.val[i]
			}
			return got, want, rhs
		}

		for step := 0; step < extra; step++ {
			enter := m + step
			a.reset()
			for k, i := range colIdx[enter] {
				a.set(i, colVal[enter][k])
			}
			f.ftran(&a, &w)
			// Leaving position: largest transformed entry (always acceptable).
			leave := int32(-1)
			best := 0.0
			for _, i := range w.ind {
				if v := math.Abs(w.val[i]); v > best {
					best, leave = v, i
				}
			}
			if leave < 0 {
				t.Fatalf("trial %d step %d: zero transformed column", trial, step)
			}
			ok := f.update(leave, &w)
			basis[leave] = enter
			if ok {
				updates++
			} else if !f.factorize(m, basis, colIdx, colVal) {
				t.Fatalf("trial %d step %d: refactorize after rejected update failed", trial, step)
			}
			if !ref.factorize(m, basis, colIdx, colVal) {
				t.Fatalf("trial %d step %d: fresh factorize failed", trial, step)
			}

			for _, btran := range []bool{false, true} {
				got, want, rhs := solve(btran)
				for i := 0; i < m; i++ {
					if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
						t.Fatalf("trial %d step %d (btran=%v): updated %g, fresh %g at %d (updates=%d)",
							trial, step, btran, got[i], want[i], i, f.ft.updates)
					}
				}
				if btran {
					continue
				}
				res := mulBasis(m, basis, colIdx, colVal, got)
				for i := 0; i < m; i++ {
					if math.Abs(res[i]-rhs[i]) > 1e-7 {
						t.Fatalf("trial %d step %d: post-update FTRAN residual %g at row %d",
							trial, step, res[i]-rhs[i], i)
					}
				}
			}
		}
	}
	if updates == 0 {
		t.Fatal("every update was rejected; the FT path never ran")
	}
}

// TestSpVecExactCancellation ensures an entry cancelled to exactly zero stays
// tracked exactly once — a duplicate index would double-apply updates in the
// pivot loops that iterate wv.ind.
func TestSpVecExactCancellation(t *testing.T) {
	var v spVec
	v.grow(8)
	v.add(3, 1.5)
	v.add(3, -1.5)
	v.add(3, 2.0)
	if len(v.ind) != 1 || v.ind[0] != 3 || v.val[3] != 2.0 {
		t.Fatalf("ind=%v val[3]=%g, want single tracked entry with 2.0", v.ind, v.val[3])
	}
	v.reset()
	if v.val[3] != 0 || len(v.ind) != 0 {
		t.Fatalf("reset left val[3]=%g ind=%v", v.val[3], v.ind)
	}
}

// BenchmarkFactorize measures one sparse LU refactorization of an m=200
// basis with a handful of nonzeros per column (the routing-LP regime).
func BenchmarkFactorize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.factorize(m, basis, colIdx, colVal) {
			b.Fatal("singular")
		}
	}
}

// BenchmarkFactorizeLarge measures one factorization of the m=20000 path
// basis of TestFactorizeLinearWork: linear in m only if the Markowitz search
// finds each step's singleton without rescanning the active rows.
func BenchmarkFactorizeLarge(b *testing.B) {
	const m = 20000
	colIdx, colVal, basis := pathBasisColumns(m)
	f := &luFactor{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.factorize(m, basis, colIdx, colVal) {
			b.Fatal("singular")
		}
	}
}

// BenchmarkFTRAN measures one hyper-sparse forward solve (a near-unit column
// through an m=200 factorization), the dominant per-iteration kernel.
func BenchmarkFTRAN(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	if !f.factorize(m, basis, colIdx, colVal) {
		b.Fatal("singular")
	}
	var a, out spVec
	a.grow(m)
	out.grow(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		a.set(int32(i%m), 1)
		a.set(int32((i*7+3)%m), -0.5)
		f.ftran(&a, &out)
	}
}

// BenchmarkBTRAN measures one hyper-sparse backward solve (a unit row
// selector, the dual ratio test's rho computation).
func BenchmarkBTRAN(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	if !f.factorize(m, basis, colIdx, colVal) {
		b.Fatal("singular")
	}
	var a, out spVec
	a.grow(m)
	out.grow(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		a.set(int32(i%m), 1)
		f.btran(&a, &out)
	}
}
