package lp

import "math"

// oracle_test.go holds the independent reference solver the engine is
// differentially tested against: a dense-tableau, two-phase,
// bounded-variable primal simplex with Bland's rule. It deliberately shares
// no code with the engine — no LU factorization, no update layer, no pricing
// state, no presolve, no dual simplex — and reads the model only through the
// Problem accessors, so an engine bug cannot hide in both solvers at once.
// It is O(m·n) per pivot and meant for the small fuzz models only.

const (
	oracleTol      = 1e-9
	oracleMaxIters = 100000
)

// oracleResult is the oracle's answer: status, objective and primal point in
// the caller's variable space (X and Obj valid only when Optimal).
type oracleResult struct {
	Status Status
	Obj    float64
	X      []float64
}

// oracleCol maps one standard-form column back to an original variable:
// x_orig[v] += sign * x_col, plus the constant shift of the variable.
type oracleCol struct {
	v    int
	sign float64
}

// oracleSolve solves p in the standard form A x = b, 0 <= x <= u. Every
// original variable becomes one shifted or mirrored column, or two columns
// when free; every inequality row gains a slack; each row then gets an
// artificial so the starting basis is the identity.
func oracleSolve(p *Problem) oracleResult {
	n, m := p.NumVars(), p.NumRows()

	var cols []oracleCol
	var ub, cost []float64
	shift := make([]float64, n)
	for j := 0; j < n; j++ {
		lo, hi := p.VarBounds(j)
		c := p.Cost(j)
		switch {
		case !math.IsInf(lo, -1): // x = lo + x'
			shift[j] = lo
			cols = append(cols, oracleCol{j, 1})
			ub = append(ub, hi-lo)
			cost = append(cost, c)
		case !math.IsInf(hi, 1): // x = hi - x'
			shift[j] = hi
			cols = append(cols, oracleCol{j, -1})
			ub = append(ub, math.Inf(1))
			cost = append(cost, -c)
		default: // x = x+ - x-
			cols = append(cols, oracleCol{j, 1}, oracleCol{j, -1})
			ub = append(ub, math.Inf(1), math.Inf(1))
			cost = append(cost, c, -c)
		}
	}
	nStruct := len(cols)

	// Dense rows over the structural columns, rhs shifted by the bound
	// substitutions, then one slack per inequality.
	a := make([][]float64, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		coeffs, _, rhs := p.Row(i)
		a[i] = make([]float64, nStruct)
		b[i] = rhs
		for _, cf := range coeffs {
			b[i] -= cf.Val * shift[cf.Var]
		}
		for k, col := range cols {
			for _, cf := range coeffs {
				if cf.Var == col.v {
					a[i][k] += cf.Val * col.sign
				}
			}
		}
	}
	for i := 0; i < m; i++ {
		_, sense, _ := p.Row(i)
		if sense == EQ {
			continue
		}
		sv := 1.0
		if sense == GE {
			sv = -1
		}
		for r := 0; r < m; r++ {
			v := 0.0
			if r == i {
				v = sv
			}
			a[r] = append(a[r], v)
		}
		ub = append(ub, math.Inf(1))
		cost = append(cost, 0)
	}
	nReal := len(ub)

	// Nonnegative rhs, then the artificial identity.
	for i := 0; i < m; i++ {
		if b[i] < 0 {
			b[i] = -b[i]
			for k := range a[i] {
				a[i][k] = -a[i][k]
			}
		}
		for r := 0; r < m; r++ {
			v := 0.0
			if r == i {
				v = 1
			}
			a[r] = append(a[r], v)
		}
		ub = append(ub, math.Inf(1))
		cost = append(cost, 0)
	}

	t := &oracleTableau{a: a, ub: ub, xB: b, basis: make([]int, m),
		atUpper: make([]bool, len(ub)), isBasic: make([]bool, len(ub))}
	for i := 0; i < m; i++ {
		t.basis[i] = nReal + i
		t.isBasic[nReal+i] = true
	}

	// Phase 1: minimize the sum of artificials over all columns.
	phase1 := make([]float64, len(ub))
	for k := nReal; k < len(ub); k++ {
		phase1[k] = 1
	}
	if st := t.run(phase1, len(ub)); st != Optimal {
		return oracleResult{Status: st}
	}
	infeas := 0.0
	for i, k := range t.basis {
		if k >= nReal {
			infeas += t.xB[i]
		}
	}
	if infeas > 1e-7 {
		return oracleResult{Status: Infeasible}
	}

	// Phase 2: artificials are pinned at zero (a basic one on a redundant
	// row stays there, blocking any step that would move it) and may never
	// enter again.
	for k := nReal; k < len(ub); k++ {
		t.ub[k] = 0
	}
	if st := t.run(cost, nReal); st != Optimal {
		return oracleResult{Status: st}
	}

	xs := make([]float64, len(ub))
	for k := range xs {
		if t.atUpper[k] {
			xs[k] = t.ub[k]
		}
	}
	for i, k := range t.basis {
		xs[k] = t.xB[i]
	}
	x := append([]float64(nil), shift...)
	for k, col := range cols {
		x[col.v] += col.sign * xs[k]
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.Cost(j) * x[j]
	}
	return oracleResult{Status: Optimal, Obj: obj, X: x}
}

// oracleTableau is the dense simplex tableau B^{-1} A over all columns, the
// basic values, and the rest side of every nonbasic column (lower bound 0 or
// its finite upper bound).
type oracleTableau struct {
	a       [][]float64
	ub      []float64
	xB      []float64
	basis   []int
	atUpper []bool
	isBasic []bool
	iters   int
}

// run iterates Bland's rule under the given costs, letting only columns
// below enterLimit enter. Returns Optimal, Unbounded or IterLimit.
func (t *oracleTableau) run(cost []float64, enterLimit int) Status {
	m := len(t.basis)
	for {
		if t.iters >= oracleMaxIters {
			return IterLimit
		}
		t.iters++

		// Bland: the lowest-index profitable column enters.
		q, dir := -1, 0.0
		for k := 0; k < enterLimit && q < 0; k++ {
			if t.isBasic[k] || t.ub[k] == 0 {
				continue
			}
			d := cost[k]
			for i := 0; i < m; i++ {
				d -= cost[t.basis[i]] * t.a[i][k]
			}
			if !t.atUpper[k] && d < -oracleTol {
				q, dir = k, 1
			} else if t.atUpper[k] && d > oracleTol {
				q, dir = k, -1
			}
		}
		if q < 0 {
			return Optimal
		}

		// Ratio test: the entering column moves by step >= 0 in direction
		// dir, basic i changes at rate -dir*a[i][q]. Ties go to the lowest
		// basic column index (Bland).
		step := t.ub[q]
		r, rToUpper := -1, false
		for i := 0; i < m; i++ {
			rate := -dir * t.a[i][q]
			var lim float64
			var toUpper bool
			switch {
			case rate < -oracleTol:
				lim = t.xB[i] / -rate
			case rate > oracleTol && !math.IsInf(t.ub[t.basis[i]], 1):
				lim, toUpper = (t.ub[t.basis[i]]-t.xB[i])/rate, true
			default:
				continue
			}
			if lim < 0 {
				lim = 0
			}
			tie := lim <= step+oracleTol && (r < 0 || t.basis[i] < t.basis[r])
			if lim < step-oracleTol || tie {
				step, r, rToUpper = lim, i, toUpper
			}
		}
		if math.IsInf(step, 1) {
			return Unbounded
		}
		for i := 0; i < m; i++ {
			t.xB[i] -= dir * t.a[i][q] * step
		}
		if r < 0 {
			t.atUpper[q] = !t.atUpper[q] // bound-to-bound flip
			continue
		}

		// Pivot q into row r.
		enterVal := dir * step
		if t.atUpper[q] {
			enterVal += t.ub[q]
		}
		out := t.basis[r]
		piv := t.a[r][q]
		for k := range t.a[r] {
			t.a[r][k] /= piv
		}
		for i := 0; i < m; i++ {
			if i == r || t.a[i][q] == 0 {
				continue
			}
			f := t.a[i][q]
			for k := range t.a[i] {
				t.a[i][k] -= f * t.a[r][k]
			}
		}
		t.isBasic[out], t.atUpper[out] = false, rToUpper
		t.isBasic[q], t.atUpper[q] = true, false
		t.basis[r] = q
		t.xB[r] = enterVal
	}
}
