package lp

import (
	"math"
	"math/bits"

	"optrouter/internal/obs"
)

// This file implements warm-started reoptimization. A branch-and-bound child
// differs from its parent only in variable bounds, so the parent's optimal
// basis is structurally valid for the child: after refactorizing it, basic
// variables may sit outside their (tightened) bounds, and bounded
// dual-simplex pivots restore primal feasibility far faster than the cold
// two-phase method (no artificials, no phase 1). The warm path is strictly
// best-effort: every exit that cannot be certified — stale shape, singular
// basis, pivot-cap exhaustion, numerically gray infeasibility — falls back
// to the cold solve, so warm starts can never change an answer.

// reSolve reoptimizes a cached engine in place after bound changes on its
// problem: bounds are reloaded, invalidated rest sides re-derived, basic
// values refreshed under the retained (already factorized) basis inverse, and
// primal feasibility restored by dual pivots. This is the fast warm path —
// unlike the snapshot path below it pays no column rebuild and no O(m^3)
// refactorization, which otherwise dominates small branch-and-bound node LPs.
// The engine's current basis need not match Options.WarmStart: any basis of
// the same problem shape is a valid starting point, and the final primal
// phase-2 pass certifies optimality regardless of where the solve started.
func (s *simplex) reSolve(opt Options) (Result, bool) {
	s.opt = opt.withDefaults(s.m, s.n)
	s.iters = 0
	s.stats = Stats{WarmStarted: true}
	s.bland = false
	s.stall = 0
	s.clock = nil
	if s.opt.CollectPhases {
		s.clock = obs.NewPhaseClock()
	}
	s.clock.Enter(PhaseBuild)

	// Reload the (possibly changed) structural bounds; slack and frozen
	// artificial bounds are untouched by the caller.
	copy(s.lo[:s.n], s.p.lo)
	copy(s.hi[:s.n], s.p.hi)
	for j := 0; j < s.n; j++ {
		switch s.state[j] {
		case stAtLower:
			if math.IsInf(s.lo[j], -1) {
				s.state[j] = restState(s.lo[j], s.hi[j])
			}
		case stAtUpper:
			if math.IsInf(s.hi[j], 1) {
				s.state[j] = restState(s.lo[j], s.hi[j])
			}
		case stFreeZero:
			if s.lo[j] > 0 || s.hi[j] < 0 {
				s.state[j] = restState(s.lo[j], s.hi[j])
			}
		}
	}
	s.clock.Enter(PhaseRefactorize)
	s.refresh()

	st, ok := s.dualRestore()
	if !ok {
		s.clock.Stop()
		return Result{}, false
	}
	if st != Optimal {
		return s.result(st), true
	}
	pst := s.iterate(s.cost[:s.ncols])
	if pst == IterLimit {
		s.clock.Stop()
		return Result{}, false
	}
	return s.primalResult(pst), true
}

// warmSolve attempts a warm-started solve from a basis snapshot, building a
// fresh simplex around it. done=false means the caller must run the cold
// path.
func warmSolve(p *Problem, opt Options) (Result, bool) {
	m, n := len(p.rows), len(p.cost)
	bs := opt.WarmStart
	if bs == nil || bs.n != n || bs.m != m {
		return Result{}, false
	}
	s := &simplex{p: p, opt: opt.withDefaults(m, n), m: m, n: n, mutGen: p.mutGen}
	if s.opt.CollectPhases {
		s.clock = obs.NewPhaseClock()
	}
	s.clock.Enter(PhaseBuild)
	s.buildColumns()
	if !s.loadBasis(bs) {
		if s.lu != nil && s.lu.stopped {
			return s.result(Stopped), true
		}
		s.clock.Stop()
		return Result{}, false
	}
	s.stats.WarmStarted = true

	st, ok := s.dualRestore()
	if !ok {
		s.clock.Stop()
		return Result{}, false
	}
	if st != Optimal {
		// Infeasibility proven by a tableau-row certificate (see dualRestore).
		return s.result(st), true
	}

	// Primal feasible: certify optimality with ordinary phase-2 iterations.
	// (Correctness rests entirely on this final primal pass — the dual pivots
	// above only steer the basis, they prove nothing about optimality.)
	pst := s.iterate(s.cost[:s.ncols])
	if pst == IterLimit {
		// The warm attempt consumed budget the cold solve would still have.
		s.clock.Stop()
		return Result{}, false
	}
	res := s.primalResult(pst)
	if opt.SnapshotBasis && res.Status == Optimal {
		p.engine = s // later warm solves reoptimize this engine in place
	}
	return res, true
}

// loadBasis installs a snapshot basis over freshly built columns: nonbasic
// rest sides are re-derived where the new bounds invalidate them, the basis
// is checked for duplicates, and the basis inverse is rebuilt from scratch.
// Returns false if the snapshot is stale or the basis matrix is singular.
func (s *simplex) loadBasis(bs *Basis) bool {
	nm := s.ncols
	s.state = make([]varState, nm, nm+s.m)
	copy(s.state, bs.state)
	for j := 0; j < nm; j++ {
		switch s.state[j] {
		case stAtLower:
			if math.IsInf(s.lo[j], -1) {
				s.state[j] = restState(s.lo[j], s.hi[j])
			}
		case stAtUpper:
			if math.IsInf(s.hi[j], 1) {
				s.state[j] = restState(s.lo[j], s.hi[j])
			}
		}
	}
	s.basis = make([]int, s.m)
	seen := make([]bool, nm)
	for i := 0; i < s.m; i++ {
		j := int(bs.basis[i])
		if j < 0 || j >= nm || seen[j] {
			return false
		}
		seen[j] = true
		s.basis[i] = j
		s.state[j] = stBasic
	}
	for j := 0; j < nm; j++ {
		if s.state[j] == stBasic && !seen[j] {
			s.state[j] = restState(s.lo[j], s.hi[j])
		}
	}
	s.xB = make([]float64, s.m)
	s.growWorkspaces()
	s.lu = &luFactor{}
	return s.refactorize()
}

// dualRestore pivots until every basic variable is within its bounds.
// Returns (Optimal, true) when primal feasibility is reached, (Infeasible,
// true) when a tableau row certifies that no solution exists — the row's
// basic variable violates a bound and no nonbasic movement can reduce the
// violation, a Farkas-style certificate that needs no dual feasibility —
// (Stopped, true) when Options.Ctx stopped it, and ok=false when the path
// must fall back (pivot cap, singular basis, or an infeasibility verdict
// resting on borderline pivot magnitudes).
//
// The restore is only basis steering — the final primal pass in
// reSolve/warmSolve/dualSolve certifies every answer — so it is built for
// speed:
//
//   - Reduced costs are maintained incrementally (pricing.go) instead of
//     being recomputed via a BTRAN of the basic costs every pivot — the
//     pivot-row BTRAN that the ratio test needs anyway is the only one left.
//   - The ratio-test alphas come from one row-driven accumulation over the
//     pivot row's nonzero pattern (rowTimesA), so the sweep visits only
//     columns that intersect the row instead of dotting every column.
//   - The leaving row is chosen by weighted violation (dual devex weights,
//     or exact dual steepest-edge row norms when dualDSE is set), and a
//     bound-flipping ratio test lets one pivot step through a run of boxed
//     breakpoints — the flips are applied with a single combined FTRAN and
//     counted in Stats.DualBoundFlips.
func (s *simplex) dualRestore() (Status, bool) {
	m := s.m
	tol := feasTol
	cost := s.cost[:s.ncols]
	pr := &s.pr

	// Fresh dual reference framework for this restore.
	dw := s.dw[:m]
	for i := range dw {
		dw[i] = 1
	}
	if s.ncols > 0 && (!pr.valid || pr.costPtr != &cost[0]) {
		s.resyncPricing(cost)
	}

	s.viol.fill(m)

	maxIters := s.dualIterCap()
	for it := 0; ; it++ {
		if it >= maxIters || s.iters >= s.opt.MaxIters {
			return 0, false
		}
		if s.ctxDone() {
			return Stopped, true
		}
		s.clock.Enter(PhasePricing)

		r, above, viol := s.leavingRow()
		if s.testLeaving != nil {
			s.testLeaving(r, above, viol)
		}
		if r == -1 {
			return Optimal, true // primal feasible
		}
		s.iters++

		// Pivot row rho = e_r' B^{-1} (one BTRAN), then every ratio-test
		// alpha in one row-driven accumulation over rho's pattern. Columns
		// outside the pattern have alpha = 0 and can be neither eligible nor
		// shaky, so the sweep below visits only the touched columns.
		s.invRow(r)
		s.rowTimesA(&s.rhov, &pr.alphaAcc)
		s.clock.Enter(PhaseRatioTest)

		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		shaky := false
		s.bfJ = s.bfJ[:0]
		s.bfRatio = s.bfRatio[:0]
		s.bfAlpha = s.bfAlpha[:0]
		for _, j32 := range pr.alphaAcc.ind {
			j := int(j32)
			st := s.state[j]
			if st == stBasic {
				continue
			}
			if s.hi[j]-s.lo[j] < 1e-13 && st != stFreeZero {
				continue // fixed variable cannot move
			}
			alpha := pr.alphaAcc.val[j32]
			var eligible, wouldHelp bool
			switch {
			case st == stFreeZero:
				eligible = math.Abs(alpha) > tol
				wouldHelp = math.Abs(alpha) > 1e-12
			case above: // basic above its upper bound: must decrease
				eligible = (st == stAtLower && alpha > tol) || (st == stAtUpper && alpha < -tol)
				wouldHelp = (st == stAtLower && alpha > 1e-12) || (st == stAtUpper && alpha < -1e-12)
			default: // basic below its lower bound: must increase
				eligible = (st == stAtLower && alpha < -tol) || (st == stAtUpper && alpha > tol)
				wouldHelp = (st == stAtLower && alpha < -1e-12) || (st == stAtUpper && alpha > 1e-12)
			}
			if !eligible {
				if wouldHelp {
					shaky = true // certificate would rest on a borderline alpha
				}
				continue
			}
			ratio := math.Abs(pr.d[j]) / math.Abs(alpha)
			if ratio < bestRatio-1e-12 ||
				(ratio < bestRatio+1e-12 && math.Abs(alpha) > math.Abs(bestAlpha)) {
				bestRatio, enter, bestAlpha = ratio, j, alpha
			}
			s.bfJ = append(s.bfJ, j32)
			s.bfRatio = append(s.bfRatio, ratio)
			s.bfAlpha = append(s.bfAlpha, alpha)
		}
		if enter == -1 {
			if shaky {
				return 0, false // let the cold solve decide
			}
			return Infeasible, true
		}

		// Bound-flipping ratio test (long-step dual simplex): walk the
		// breakpoints in ratio order; while the blocking variable is boxed
		// and flipping it to its other bound leaves the row still violated
		// (slope stays positive), flip it and move to the next breakpoint.
		// The breakpoint where the slope would die — or the first non-boxed
		// one — enters the basis instead.
		nflip := 0
		if len(s.bfJ) >= 2 {
			slope := viol
			remaining := len(s.bfJ)
			for nflip < 64 && remaining > 1 {
				k := -1
				br := math.Inf(1)
				ba := 0.0
				for q, rt := range s.bfRatio {
					if rt < br-1e-12 ||
						(rt < br+1e-12 && math.Abs(s.bfAlpha[q]) > math.Abs(ba)) {
						br, ba, k = rt, s.bfAlpha[q], q
					}
				}
				if k < 0 {
					break
				}
				j := int(s.bfJ[k])
				rng := s.hi[j] - s.lo[j]
				boxed := s.state[j] != stFreeZero &&
					!math.IsInf(s.lo[j], -1) && !math.IsInf(s.hi[j], 1)
				if !boxed || slope-math.Abs(ba)*rng <= tol {
					enter, bestAlpha = j, ba
					break
				}
				// Flip j through: consume its breakpoint and keep walking.
				s.bfRatio[k] = math.Inf(1)
				s.bfJ[k] = -s.bfJ[k] - 1 // mark flipped (bit-complement)
				slope -= math.Abs(ba) * rng
				remaining--
				nflip++
			}
			if nflip > 0 && remaining <= 1 {
				// Walked off the end: enter the last unconsumed breakpoint.
				for q, j32 := range s.bfJ {
					if j32 >= 0 && !math.IsInf(s.bfRatio[q], 1) {
						enter, bestAlpha = int(j32), s.bfAlpha[q]
					}
				}
			}
		}
		s.clock.Enter(PhasePivot)

		// Full pivot column w = B^{-1} A_enter (an FTRAN).
		s.computePivotColumn(enter)
		piv := s.w[r]
		if math.Abs(piv) < 1e-11 {
			// The sparse alpha and the dense recomputation disagree badly:
			// rebuild the inverse and retry the row (no flips applied yet).
			s.stats.Counters[RefactorPivotQuality]++
			if !s.refactorize() {
				return s.restoreFailed()
			}
			continue
		}

		// Verify the maintained reduced cost of the entering column against
		// its exact value (free given the FTRAN result); drift forces a
		// resync and a retry of the whole row.
		dq := cost[enter]
		for _, i := range s.wv.ind {
			dq -= cost[s.basis[i]] * s.w[i]
		}
		if math.Abs(dq-pr.d[enter]) > priceDriftTol*(1+math.Abs(dq)) {
			s.resyncPricing(cost)
			continue
		}
		pr.d[enter] = dq

		// Apply the accumulated bound flips with one combined FTRAN: the
		// basic values absorb B^{-1} * sum(a_j * delta_j). Reduced costs and
		// pricing weights are untouched — flips change no basis column.
		if nflip > 0 {
			s.applyBoundFlips()
		}

		// Fold the exchange into the maintained reduced costs (alphas are
		// already in the accumulator) and the dual row weights, both against
		// the old basis representation.
		bj := s.basis[r]
		s.pricingUpdate(cost, enter, r, bj, piv, dq, &s.rhov)
		s.dualWeightUpdate(r, piv)

		// The leaving variable lands exactly on its violated bound.
		beta := s.lo[bj]
		if above {
			beta = s.hi[bj]
		}
		dx := (s.xB[r] - beta) / piv
		enterVal := s.nbValue(enter) + dx
		for _, i := range s.wv.ind {
			s.xB[i] -= s.w[i] * dx
			s.viol.add(int(i))
		}
		s.stats.Pivots++
		if above {
			s.state[bj] = stAtUpper
		} else {
			s.state[bj] = stAtLower
		}
		s.basis[r] = enter
		s.state[enter] = stBasic
		s.xB[r] = enterVal // r is in wv.ind (w[r] is the pivot), so in s.viol
		if !s.updateBasisRep(r) {
			return s.restoreFailed()
		}
		if s.iters%256 == 0 {
			s.refresh()
			pr.valid = false // periodic resync curbs reduced-cost drift
		}
	}
}

// applyBoundFlips toggles every breakpoint marked flipped in s.bfJ to its
// opposite bound and folds the combined column movement into the basic
// values: xB -= B^{-1} * sum(a_j * delta_j), one FTRAN for the whole run.
func (s *simplex) applyBoundFlips() {
	s.av.reset()
	n := 0
	for _, j32 := range s.bfJ {
		if j32 >= 0 {
			continue
		}
		j := int(-j32 - 1)
		var delta float64
		if s.state[j] == stAtLower {
			delta = s.hi[j] - s.lo[j]
			s.state[j] = stAtUpper
		} else {
			delta = s.lo[j] - s.hi[j]
			s.state[j] = stAtLower
		}
		for k, i := range s.colIdx[j] {
			s.av.add(i, s.colVal[j][k]*delta)
		}
		n++
	}
	if n == 0 {
		return
	}
	s.stats.Counters[DualBoundFlips] += n
	prev := s.clockSub(PhaseFTRAN)
	s.lu.ftran(&s.av, &s.fv)
	s.stats.FTRANNnz += len(s.fv.ind)
	s.clockBack(prev)
	for _, i := range s.fv.ind {
		s.xB[i] -= s.fv.val[i]
		s.viol.add(int(i))
	}
}

// leavingRow picks the dual restore's leaving row: the largest weighted
// bound violation v*v/dw over the rows whose basic value violates a bound by
// more than tol, ties to the lowest row; r = -1 when every basic value is
// within its bounds. It walks only the rows in s.viol, which holds every row
// whose basic value or basic variable changed since it was last found
// feasible (the restore's pivots and bound flips add their touched rows, and
// refresh adds all), and drops the rows it finds feasible. The choice is
// that of a scan of every row (the test oracle in dual_test.go).
func (s *simplex) leavingRow() (r int, above bool, viol float64) {
	tol := feasTol
	r = -1
	worst := 0.0
	set := &s.viol
	for wi := set.lo; wi < len(set.w); wi++ {
		for word := set.w[wi]; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			bj := s.basis[i]
			over := s.xB[i] - s.hi[bj]
			under := s.lo[bj] - s.xB[i]
			if over <= tol && under <= tol {
				set.w[wi] &^= 1 << uint(i&63)
				continue
			}
			if over > tol {
				if sc := over * over / s.dw[i]; sc > worst {
					worst, r, above, viol = sc, i, true, over
				}
			}
			if under > tol {
				if sc := under * under / s.dw[i]; sc > worst {
					worst, r, above, viol = sc, i, false, under
				}
			}
		}
		if wi == set.lo && set.w[wi] == 0 {
			set.lo++
		}
	}
	return r, above, viol
}

// restoreFailed is dualRestore's exit when the basis could not be
// refactorized: Stopped when the factorization gave up on Options.Ctx,
// otherwise a fallback to the cold solve.
func (s *simplex) restoreFailed() (Status, bool) {
	if s.lu.stopped {
		return Stopped, true
	}
	return 0, false
}

// dualWeightUpdate maintains the dual pricing weights across the exchange on
// row r. With dualDSE set (the primary dual simplex, algorithm.go) the
// weights are exact dual steepest-edge row norms |B^{-1}_i|^2, updated with
// the extra FTRAN tau = B^{-1} rho the Forrest-Goldfarb recurrence needs;
// otherwise a devex-style reference update keeps them cheap approximations.
// Must run before updateBasisRep (rho, w and tau all live under the old
// representation).
func (s *simplex) dualWeightUpdate(r int, piv float64) {
	m := s.m
	dw := s.dw[:m]

	// Exact weight of the pivot row, free from rho itself.
	brExact := 0.0
	for _, i := range s.rhov.ind {
		v := s.rhov.val[i]
		brExact += v * v
	}

	if s.dualDSE {
		// tau = B^{-1} rho^T: the correction term of the exact update.
		prev := s.clockSub(PhaseFTRAN)
		s.av.reset()
		for _, i := range s.rhov.ind {
			if v := s.rhov.val[i]; v != 0 {
				s.av.set(i, v)
			}
		}
		s.lu.ftran(&s.av, &s.tauv)
		s.stats.FTRANNnz += len(s.tauv.ind)
		s.clockBack(prev)
		tau := s.tauv.val
		for _, i32 := range s.wv.ind {
			i := int(i32)
			if i == r {
				continue
			}
			eta := s.w[i] / piv
			b := dw[i] - 2*eta*tau[i] + eta*eta*brExact
			if b < 1e-10 {
				b = 1e-10
			}
			dw[i] = b
		}
	} else {
		for _, i32 := range s.wv.ind {
			i := int(i32)
			if i == r {
				continue
			}
			eta := s.w[i] / piv
			if b := eta * eta * brExact; b > dw[i] {
				dw[i] = b
			}
		}
	}
	b := brExact / (piv * piv)
	if b < 1e-10 {
		b = 1e-10
	}
	dw[r] = b
}
