package lp

import (
	"math"

	"optrouter/internal/obs"
)

// This file promotes the dual simplex from a warm-restore helper (dual.go)
// to a primary algorithm (Options.Algorithm == AlgorithmDual). The solve
// starts from the all-slack basis — an identity matrix, so the initial dual
// steepest-edge row norms are exactly 1 and the exact-DSE recurrence keeps
// them exact from the first pivot — with every nonbasic column rested on the
// bound its cost sign makes dual feasible. Columns with no such bound (a
// free variable with nonzero cost, or a one-sided variable whose cost points
// away from its only bound) get a temporary artificial bound at their
// current value: this is the dual phase 1, and it restricts the primal
// problem, so an Infeasible verdict reached with artificial bounds in play
// is not a certificate and falls back to the primal algorithm. After the
// bound-flipping dual restore reaches primal feasibility the artificial
// bounds are lifted (each affected variable keeps its value under the
// re-derived state, so feasibility survives) and a final primal phase-2
// pass certifies optimality against the true bounds — the same "dual
// steers, primal certifies" discipline as the warm path.

// dualArtBound records one imposed artificial bound for later restoration.
type dualArtBound struct {
	j     int32
	lower bool // which side was overwritten
}

// dualSolve runs the primary dual simplex. done=false means the attempt
// cannot be certified (iteration cap, singular basis, or an infeasibility
// verdict under artificial bounds) and the caller must run the primal
// algorithm instead.
func dualSolve(p *Problem, opt Options) (Result, *simplex, bool) {
	m, n := len(p.rows), len(p.cost)
	s := &simplex{p: p, opt: opt.withDefaults(m, n), m: m, n: n, mutGen: p.mutGen}
	if s.opt.CollectPhases {
		s.clock = obs.NewPhaseClock()
	}
	s.clock.Enter(PhaseBuild)
	s.buildColumns()
	art := s.dualBasis()
	s.dualCap = s.opt.MaxIters
	s.dualDSE = true

	st, ok := s.dualRestore()
	s.dualDSE = false
	nab := len(art)
	s.liftArtificialBounds(art)
	if !ok {
		s.clock.Stop()
		return Result{}, nil, false
	}
	if st != Optimal {
		if st == Stopped || (st == Infeasible && nab == 0) {
			// Stopped by Options.Ctx, or infeasible by a certificate derived
			// under the true bounds: report it.
			return s.result(st), s, true
		}
		s.clock.Stop()
		return Result{}, nil, false
	}
	pst := s.iterate(s.cost[:s.ncols])
	if pst == IterLimit {
		s.clock.Stop()
		return Result{}, nil, false
	}
	return s.primalResult(pst), s, true
}

// dualBasis installs the all-slack basis with dual-feasible nonbasic rest
// sides, imposing artificial bounds where dual feasibility has no bound to
// rest on. Returns the imposed bounds for later restoration.
func (s *simplex) dualBasis() []dualArtBound {
	m, n := s.m, s.n
	tol := feasTol
	var art []dualArtBound

	s.state = make([]varState, s.ncols, s.ncols+m)
	for j := 0; j < n; j++ {
		lo, hi := s.lo[j], s.hi[j]
		c := s.cost[j]
		switch {
		case c > tol: // d_j = c_j > 0 at the slack basis: must rest at lower
			if !math.IsInf(lo, -1) {
				s.state[j] = stAtLower
			} else if !math.IsInf(hi, 1) {
				// Pin at the existing upper bound (temporarily fixed, so no
				// dual-feasibility condition applies); lifting the artificial
				// lower bound later re-derives stAtUpper at the same value.
				s.lo[j] = hi
				s.state[j] = stAtLower
				art = append(art, dualArtBound{int32(j), true})
			} else {
				s.lo[j] = 0
				s.state[j] = stAtLower
				art = append(art, dualArtBound{int32(j), true})
			}
		case c < -tol: // must rest at upper
			if !math.IsInf(hi, 1) {
				s.state[j] = stAtUpper
			} else if !math.IsInf(lo, -1) {
				s.hi[j] = lo
				s.state[j] = stAtUpper
				art = append(art, dualArtBound{int32(j), false})
			} else {
				s.hi[j] = 0
				s.state[j] = stAtUpper
				art = append(art, dualArtBound{int32(j), false})
			}
		default: // |d_j| within tolerance: any rest side is dual feasible
			s.state[j] = restState(lo, hi)
		}
	}

	// Slack residual and the identity basis. Every slack has a finite bound
	// and zero cost, so slacks are never dual infeasible.
	resid := s.residScratch()
	for j := 0; j < n; j++ {
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		for k, i := range s.colIdx[j] {
			resid[i] -= s.colVal[j][k] * v
		}
	}
	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	for i := 0; i < m; i++ {
		sl := n + i
		s.basis[i] = sl
		s.state[sl] = stBasic
		s.xB[i] = resid[i]
	}

	s.growWorkspaces()
	s.lu = &luFactor{}
	// The all-slack basis is the identity; this factorization cannot fail.
	s.lu.factorize(m, s.basis, s.colIdx, s.colVal)
	return art
}

// liftArtificialBounds restores the true bounds over the artificial ones and
// re-derives the states of variables still resting on a lifted bound. Each
// such variable keeps its current value — the artificial bound was placed at
// the nearest true bound (or zero for a fully free variable, which rests as
// stFreeZero) — so basic values and primal feasibility are unaffected.
func (s *simplex) liftArtificialBounds(art []dualArtBound) {
	for _, ab := range art {
		j := int(ab.j)
		if ab.lower {
			s.lo[j] = s.p.lo[j]
			if s.state[j] == stAtLower {
				if !math.IsInf(s.hi[j], 1) {
					s.state[j] = stAtUpper
				} else {
					s.state[j] = stFreeZero
				}
			}
		} else {
			s.hi[j] = s.p.hi[j]
			if s.state[j] == stAtUpper {
				if !math.IsInf(s.lo[j], -1) {
					s.state[j] = stAtLower
				} else {
					s.state[j] = stFreeZero
				}
			}
		}
	}
}
