package lp

import "math"

// presolve.go reduces the MILP root model before branch-and-bound searches
// it (package ilp calls PresolveProblem once, in front of the root LP):
// empty and redundant rows are dropped, singleton rows become variable
// bounds, forced rows fix every variable they touch, and fixed columns fold
// into the right-hand sides and the objective offset. A row whose activity
// bounds cannot reach its right-hand side proves the model infeasible.
//
// Every reduction removes only rows that the remaining bounds imply and
// columns whose value is fixed, so a reduced solution lifts back to the
// original space by filling in the fixed values (Postsolve). Bound
// tightening of integer columns from row activities is left to the MILP
// layer's own propagation, which runs before this pass.

// Presolved is the outcome of a presolve pass: the reduced problem plus
// everything needed to map solutions back to the original.
type Presolved struct {
	Reduced *Problem

	// ObjOffset is the objective contribution of removed columns:
	// c_orig·x_full = c_red·x_red + ObjOffset.
	ObjOffset float64

	// ColMap maps original column indices to reduced ones (-1 = removed).
	ColMap []int32

	RowsRemoved int
	ColsRemoved int
	Infeasible  bool

	fixed []float64 // value of each removed column
}

// PresolveProblem reduces p. integer marks integral variables (nil = all
// continuous); fixings of integer columns are rounded, and a fix that lands
// further than 1e-6 from an integer proves the model infeasible. Returns nil
// when no reduction applies (callers should then solve p directly). A
// non-nil result with Infeasible set means presolve proved the model
// infeasible.
func PresolveProblem(p *Problem, integer []bool) *Presolved {
	const tol = 1e-9 // feasibility tolerance
	n := len(p.cost)
	m := len(p.rows)

	// Working copies. Row entries are physically compacted as columns leave.
	lo := append([]float64(nil), p.lo...)
	hi := append([]float64(nil), p.hi...)
	rhs := append([]float64(nil), p.rhs...)
	senses := p.senses
	rIdx := make([][]int32, m)
	rVal := make([][]float64, m)
	// colRows lists the rows of each original column. Entries only ever
	// leave rows, so it covers every row a column can still appear in.
	colRows := make([][]int32, n)
	for i, r := range p.rows {
		rIdx[i] = append([]int32(nil), r.idx...)
		rVal[i] = append([]float64(nil), r.val...)
		for _, j := range r.idx {
			colRows[j] = append(colRows[j], int32(i))
		}
	}
	rowAlive := make([]bool, m)
	colAlive := make([]bool, n)
	for i := range rowAlive {
		rowAlive[i] = true
	}
	for j := range colAlive {
		colAlive[j] = true
	}

	ps := &Presolved{fixed: make([]float64, n)}

	dropCol := func(j int, val float64) bool { // returns false on infeasibility
		if integer != nil && integer[j] {
			r := math.Round(val)
			if math.Abs(val-r) > 1e-6 {
				return false
			}
			val = r
		}
		for _, i := range colRows[j] {
			if !rowAlive[i] {
				continue
			}
			idx, vals := rIdx[i], rVal[i]
			for k := 0; k < len(idx); k++ {
				if int(idx[k]) != j {
					continue
				}
				rhs[i] -= vals[k] * val
				idx[k] = idx[len(idx)-1]
				vals[k] = vals[len(vals)-1]
				rIdx[i] = idx[:len(idx)-1]
				rVal[i] = vals[:len(vals)-1]
				break
			}
		}
		ps.ObjOffset += p.cost[j] * val
		ps.fixed[j] = val
		colAlive[j] = false
		ps.ColsRemoved++
		return true
	}

	infeasible := func() *Presolved {
		ps.Infeasible = true
		return ps
	}

	changed := true
	for pass := 0; pass < 10 && changed; pass++ {
		changed = false

		// ---- Column sweep: inverted bounds, fixed columns.
		for j := 0; j < n; j++ {
			if !colAlive[j] {
				continue
			}
			if lo[j] > hi[j]+tol {
				return infeasible()
			}
			if hi[j]-lo[j] <= tol && !math.IsInf(lo[j], -1) {
				if !dropCol(j, (lo[j]+hi[j])/2) {
					return infeasible()
				}
				changed = true
			}
		}

		// ---- Row sweep: activity bounds classify each row.
		for i := 0; i < m; i++ {
			if !rowAlive[i] {
				continue
			}
			idx, vals := rIdx[i], rVal[i]

			if len(idx) == 0 { // empty row: constant constraint on 0
				switch senses[i] {
				case LE:
					if rhs[i] < -tol {
						return infeasible()
					}
				case GE:
					if rhs[i] > tol {
						return infeasible()
					}
				case EQ:
					if math.Abs(rhs[i]) > tol {
						return infeasible()
					}
				}
				rowAlive[i] = false
				ps.RowsRemoved++
				changed = true
				continue
			}

			// Activity bounds over the alive entries.
			infAct, supAct := 0.0, 0.0
			for k, j := range idx {
				a := vals[k]
				if a > 0 {
					infAct += a * lo[j]
					supAct += a * hi[j]
				} else {
					infAct += a * hi[j]
					supAct += a * lo[j]
				}
			}

			// Infeasible by activity alone?
			if (senses[i] == LE || senses[i] == EQ) && infAct > rhs[i]+tol {
				return infeasible()
			}
			if (senses[i] == GE || senses[i] == EQ) && supAct < rhs[i]-tol {
				return infeasible()
			}

			// Singleton row: one coefficient — the row is a variable bound.
			if len(idx) == 1 {
				j, a := int(idx[0]), vals[0]
				bd := rhs[i] / a
				tightLo := senses[i] == GE || senses[i] == EQ
				tightHi := senses[i] == LE || senses[i] == EQ
				if a < 0 {
					tightLo, tightHi = tightHi, tightLo
				}
				if tightLo && bd > lo[j] {
					lo[j] = bd
				}
				if tightHi && bd < hi[j] {
					hi[j] = bd
				}
				if lo[j] > hi[j]+tol {
					return infeasible()
				}
				rowAlive[i] = false
				ps.RowsRemoved++
				changed = true
				continue
			}

			// Forced row: the activity bound meets the rhs exactly, so every
			// column must sit at its extreme-activity bound.
			forcedLo := !math.IsInf(infAct, -1) && infAct >= rhs[i]-tol &&
				(senses[i] == LE || senses[i] == EQ)
			forcedHi := !math.IsInf(supAct, 1) && supAct <= rhs[i]+tol &&
				(senses[i] == GE || senses[i] == EQ)
			if forcedLo || forcedHi {
				for k, j := range idx {
					// Fix by collapsing the bounds; the column sweep of the
					// next pass removes the column and adjusts the rhs.
					if (vals[k] > 0) == forcedLo {
						hi[j] = lo[j]
					} else {
						lo[j] = hi[j]
					}
				}
				rowAlive[i] = false
				ps.RowsRemoved++
				changed = true
				continue
			}

			// Redundant row: satisfied by every point of the bound box.
			redundant := false
			switch senses[i] {
			case LE:
				redundant = !math.IsInf(supAct, 1) && supAct <= rhs[i]+tol
			case GE:
				redundant = !math.IsInf(infAct, -1) && infAct >= rhs[i]-tol
			}
			if redundant {
				rowAlive[i] = false
				ps.RowsRemoved++
				changed = true
			}
		}
	}

	if ps.RowsRemoved == 0 && ps.ColsRemoved == 0 {
		return nil
	}

	// ---- Assemble the reduced problem and the column map.
	ps.ColMap = make([]int32, n)
	red := NewProblem()
	for j := 0; j < n; j++ {
		if !colAlive[j] {
			ps.ColMap[j] = -1
			continue
		}
		ps.ColMap[j] = int32(red.AddVariable(lo[j], hi[j], p.cost[j]))
		if p.names[j] != "" {
			red.SetName(int(ps.ColMap[j]), p.names[j])
		}
	}
	coefs := make([]Coef, 0, 16)
	for i := 0; i < m; i++ {
		if !rowAlive[i] {
			continue
		}
		coefs = coefs[:0]
		for k, j := range rIdx[i] {
			coefs = append(coefs, Coef{Var: int(ps.ColMap[j]), Val: rVal[i][k]})
		}
		red.AddConstraint(coefs, senses[i], rhs[i])
	}
	ps.Reduced = red
	return ps
}

// MapMask maps a per-original-column boolean mask (e.g. integrality marks)
// onto the reduced column space.
func (ps *Presolved) MapMask(mask []bool) []bool {
	out := make([]bool, ps.Reduced.NumVars())
	for j, rj := range ps.ColMap {
		if rj >= 0 {
			out[rj] = mask[j]
		}
	}
	return out
}

// Postsolve lifts a reduced-space solution to the original variable space:
// kept columns take their reduced values, removed columns their fix values.
func (ps *Presolved) Postsolve(xRed []float64) []float64 {
	x := make([]float64, len(ps.ColMap))
	for j, rj := range ps.ColMap {
		if rj >= 0 {
			x[j] = xRed[rj]
		} else {
			x[j] = ps.fixed[j]
		}
	}
	return x
}
