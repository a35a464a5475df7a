package lp

import (
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
