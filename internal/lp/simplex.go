package lp

import (
	"math"

	"optrouter/internal/obs"
)

// varState classifies a nonbasic variable's current position.
type varState uint8

const (
	stBasic varState = iota
	stAtLower
	stAtUpper
	stFreeZero // free variable resting at value 0
)

// simplex is the working state of one bounded-variable two-phase solve.
// The column space is [structural | slacks | artificials]; slacks encode the
// constraint senses and artificials make the initial basis feasible.
//
// The basis is represented as a sparse LU factorization kept current by
// Forrest-Tomlin updates (factor.go, ft.go, ftran.go). The pivot column lands
// in w/wv (dense values plus a deduplicated nonzero index list) so the ratio
// test and value updates iterate only the touched rows.
type simplex struct {
	p   *Problem
	opt Options

	m, n   int // rows, structural columns
	ncols  int // total columns
	colIdx [][]int32
	colVal [][]float64
	lo, hi []float64
	cost   []float64 // phase-2 cost per column (0 for slack/artificial)

	basis []int      // basis[i] = column basic in row i
	state []varState // per column
	xB    []float64  // value of basic variable per row
	b     []float64  // rhs
	nArt  int        // number of artificial columns appended

	lu *luFactor // sparse LU + Forrest-Tomlin update state

	y    []float64 // dual vector (aliases yv.val)
	w    []float64 // pivot column (aliases wv.val)
	yv   spVec     // dual workspace
	wv   spVec     // pivot-column workspace; wv.ind is the touched-row list
	av   spVec     // FTRAN/BTRAN right-hand-side workspace
	rhov spVec     // B^{-1} row workspace (dual ratio test)
	tauv spVec     // dual steepest-edge tau = B^{-1} rho workspace (dual.go)
	fv   spVec     // bound-flip combined-column FTRAN workspace (dual.go)

	pr   pricer    // maintained pricing state (pricing.go)
	dw   []float64 // dual pricing weights per row (dual.go)
	viol rowSet    // rows whose basic value may violate a bound (dual.go)

	// Pooled bound-flipping ratio test breakpoint arrays (dual.go).
	bfJ     []int32
	bfRatio []float64
	bfAlpha []float64

	costBuf  []float64 // pooled phase-1 cost vector (solve())
	residBuf []float64 // pooled residual for refresh()/coldBasis
	xsol     []float64 // pooled Result.X buffer (see Result.X docs)
	ysol     []float64 // pooled Result.Duals buffer (Options.WantDuals)

	iters  int
	stats  Stats
	bland  bool            // Bland's anti-cycling rule active
	stall  int             // consecutive degenerate pivots
	clock  *obs.PhaseClock // nil unless Options.CollectPhases
	mutGen uint64          // Problem.mutGen at build time (engine staleness check)

	// Primary dual-simplex mode (algorithm.go). dualCap overrides the warm
	// restore's short pivot budget (a primary dual run needs a full-length
	// one), and dualDSE selects exact dual steepest-edge row weights in
	// dualWeightUpdate instead of the devex-style approximation.
	dualCap int
	dualDSE bool

	// Test hook (dual_test.go): called with every leaving-row choice of the
	// dual restore, to check it against a scan of every row.
	testLeaving func(r int, above bool, viol float64)
}

// dualIterCap is the dual-restore pivot budget: short for warm restores
// (anything longer is evidence the basis was a bad start and the cold solve
// should take over), full-length when the dual simplex is the primary
// algorithm.
func (s *simplex) dualIterCap() int {
	if s.dualCap > 0 {
		return s.dualCap
	}
	return 40*s.m + 400
}

func newSimplex(p *Problem, opt Options) *simplex {
	m := len(p.rows)
	n := len(p.cost)
	s := &simplex{
		p:      p,
		opt:    opt.withDefaults(m, n),
		m:      m,
		n:      n,
		mutGen: p.mutGen,
	}
	if s.opt.CollectPhases {
		s.clock = obs.NewPhaseClock()
	}
	s.clock.Enter(PhaseBuild)
	s.build()
	return s
}

// build assembles internal columns then installs the cold initial basis.
func (s *simplex) build() {
	s.buildColumns()
	s.coldBasis()
}

// buildColumns assembles the structural and slack columns (shared between the
// cold and warm start paths).
func (s *simplex) buildColumns() {
	p := s.p
	m, n := s.m, s.n

	// Structural columns, gathered from rows.
	s.colIdx = make([][]int32, n, n+2*m)
	s.colVal = make([][]float64, n, n+2*m)
	for i, r := range p.rows {
		for k, j := range r.idx {
			s.colIdx[j] = append(s.colIdx[j], int32(i))
			s.colVal[j] = append(s.colVal[j], r.val[k])
		}
	}
	s.lo = append([]float64(nil), p.lo...)
	s.hi = append([]float64(nil), p.hi...)
	s.cost = append([]float64(nil), p.cost...)
	s.b = append([]float64(nil), p.rhs...)

	// Slack columns.
	for i := 0; i < m; i++ {
		s.colIdx = append(s.colIdx, []int32{int32(i)})
		s.colVal = append(s.colVal, []float64{1})
		switch p.senses[i] {
		case LE:
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, Inf)
		case GE:
			s.lo = append(s.lo, -Inf)
			s.hi = append(s.hi, 0)
		case EQ:
			s.lo = append(s.lo, 0)
			s.hi = append(s.hi, 0)
		}
		s.cost = append(s.cost, 0)
	}
	s.ncols = n + m
}

// coldBasis installs the slack-or-artificial initial basis (phase 1 start).
func (s *simplex) coldBasis() {
	m, n := s.m, s.n

	// Nonbasic rest values for structural variables: nearest finite bound.
	s.state = make([]varState, s.ncols, s.ncols+m)
	for j := 0; j < n; j++ {
		s.state[j] = restState(s.lo[j], s.hi[j])
	}

	// Residual per row given nonbasic structural values.
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

	// Choose initial basis: slack where feasible, otherwise artificial.
	s.basis = make([]int, m)
	s.xB = make([]float64, m)
	for i := 0; i < m; i++ {
		sl := n + i
		if resid[i] >= s.lo[sl]-s.opt.Tol && resid[i] <= s.hi[sl]+s.opt.Tol {
			s.basis[i] = sl
			s.state[sl] = stBasic
			s.xB[i] = resid[i]
			continue
		}
		// Slack pinned at its nearest bound; artificial absorbs the rest.
		sv := math.Max(s.lo[sl], math.Min(s.hi[sl], 0))
		if resid[i] < s.lo[sl] {
			sv = s.lo[sl]
			s.state[sl] = stAtLower
		} else {
			sv = s.hi[sl]
			s.state[sl] = stAtUpper
		}
		if s.lo[sl] == s.hi[sl] {
			s.state[sl] = stAtLower
		}
		gap := resid[i] - sv
		sign := 1.0
		if gap < 0 {
			sign = -1.0
		}
		art := s.ncols
		s.colIdx = append(s.colIdx, []int32{int32(i)})
		s.colVal = append(s.colVal, []float64{sign})
		s.lo = append(s.lo, 0)
		s.hi = append(s.hi, Inf)
		s.cost = append(s.cost, 0)
		s.state = append(s.state, stBasic)
		s.ncols++
		s.nArt++
		s.basis[i] = art
		s.xB[i] = math.Abs(gap)
	}

	s.growWorkspaces()
	s.lu = &luFactor{}
	// The diagonal initial basis factorizes trivially (all singletons), so
	// this factorization cannot fail.
	s.lu.factorize(m, s.basis, s.colIdx, s.colVal)
	s.noteFactorization()
}

// growWorkspaces sizes the per-solve vector workspaces (idempotent).
func (s *simplex) growWorkspaces() {
	s.yv.grow(s.m)
	s.wv.grow(s.m)
	s.av.grow(s.m)
	s.rhov.grow(s.m)
	s.tauv.grow(s.m)
	s.fv.grow(s.m)
	s.y = s.yv.val
	s.w = s.wv.val
	s.pr.grow(s.ncols)
	if len(s.dw) < s.m {
		s.dw = make([]float64, s.m)
	}
}

// invRow materializes row r of B^{-1} (the tableau row of basis position r,
// used by the dual ratio test) into the pooled rhov workspace and returns its
// dense value array: rho = BTRAN(e_r), touching only the nonzero pattern.
func (s *simplex) invRow(r int) []float64 {
	prev := s.clockSub(PhaseBTRAN)
	s.av.reset()
	s.av.set(int32(r), 1)
	s.lu.btran(&s.av, &s.rhov)
	s.stats.BTRANNnz += len(s.rhov.ind)
	s.clockBack(prev)
	return s.rhov.val
}

// noteFactorization records the last factorization's size in the stats.
func (s *simplex) noteFactorization() {
	s.stats.FactorNNZ = s.lu.factorNNZ
	if s.lu.basisNNZ > 0 {
		s.stats.FillRatio = float64(s.lu.factorNNZ) / float64(s.lu.basisNNZ)
	}
}

func restState(lo, hi float64) varState {
	switch {
	case !math.IsInf(lo, -1):
		return stAtLower
	case !math.IsInf(hi, 1):
		return stAtUpper
	default:
		return stFreeZero
	}
}

// nbValue returns the resting value of nonbasic column j.
func (s *simplex) nbValue(j int) float64 {
	switch s.state[j] {
	case stAtLower:
		return s.lo[j]
	case stAtUpper:
		return s.hi[j]
	default:
		return 0
	}
}

// clockSub switches the phase clock into a linear-algebra sub-phase (ftran,
// btran), returning the phase to restore via clockBack. No-ops without
// CollectPhases.
func (s *simplex) clockSub(name string) string {
	if s.clock == nil {
		return ""
	}
	return s.clock.Swap(name)
}

func (s *simplex) clockBack(prev string) {
	if prev != "" {
		s.clock.Enter(prev)
	}
}

// computeDuals fills s.y with the duals of the given cost vector:
// y = cB^T B^{-1}, a BTRAN of the basic-cost vector. Entries of y outside
// the tracked nonzeros of s.yv are guaranteed zero.
func (s *simplex) computeDuals(cost []float64) {
	prev := s.clockSub(PhaseBTRAN)
	s.av.reset()
	for i := 0; i < s.m; i++ {
		if cb := cost[s.basis[i]]; cb != 0 {
			s.av.set(int32(i), cb)
		}
	}
	s.lu.btran(&s.av, &s.yv)
	s.stats.BTRANNnz += len(s.yv.ind)
	s.clockBack(prev)
}

// computePivotColumn fills s.w (and the touched-row list s.wv.ind) with the
// transformed entering column w = B^{-1} A_enter — an FTRAN.
func (s *simplex) computePivotColumn(enter int) {
	prev := s.clockSub(PhaseFTRAN)
	s.av.reset()
	for k, r := range s.colIdx[enter] {
		s.av.set(r, s.colVal[enter][k])
	}
	s.lu.ftran(&s.av, &s.wv)
	s.stats.FTRANNnz += len(s.wv.ind)
	s.clockBack(prev)
}

// updateBasisRep folds the just-performed basis exchange (entering column's
// transform in s.wv, leaving row leave) into the basis representation.
// Returns false when the representation could not be repaired (singular
// refactorization) — the caller must give up on the solve.
func (s *simplex) updateBasisRep(leave int) bool {
	if !s.lu.update(int32(leave), &s.wv) {
		// Update rejected on spike-pivot quality: rebuild from the (already
		// exchanged) basis.
		s.stats.RefactorUpdateRejected++
		return s.refactorize()
	}
	reason := s.lu.refactorDue()
	if reason == refactorNone {
		s.stats.EtaPivots++
		return true
	}
	// Update absorbed but the update file outgrew its budget.
	if reason == refactorEtaLen {
		s.stats.RefactorEtaLen++
	} else {
		s.stats.RefactorFill++
	}
	return s.refactorize()
}

// result assembles a Result carrying the accumulated statistics.
func (s *simplex) result(st Status) Result {
	s.stats.Iters = s.iters
	s.clock.Stop()
	s.stats.Phases = s.clock.Breakdown()
	return Result{Status: st, Iters: s.iters, Stats: s.stats}
}

// costScratch returns the pooled per-phase cost vector, zeroed.
func (s *simplex) costScratch() []float64 {
	if cap(s.costBuf) < s.ncols {
		s.costBuf = make([]float64, s.ncols)
	}
	s.costBuf = s.costBuf[:s.ncols]
	for j := range s.costBuf {
		s.costBuf[j] = 0
	}
	return s.costBuf
}

// residScratch returns the pooled residual vector, initialized to the rhs.
func (s *simplex) residScratch() []float64 {
	if cap(s.residBuf) < s.m {
		s.residBuf = make([]float64, s.m)
	}
	s.residBuf = s.residBuf[:s.m]
	copy(s.residBuf, s.b)
	return s.residBuf
}

// solve runs phase 1 (drive artificials to zero) then phase 2.
func (s *simplex) solve() Result {
	tol := s.opt.Tol

	if s.nArt > 0 {
		// Phase-1 costs: 1 on artificial columns.
		phase1 := s.costScratch()
		for j := s.n + s.m; j < s.ncols; j++ {
			phase1[j] = 1
		}
		st := s.iterate(phase1)
		s.stats.Phase1Iters = s.iters
		if st == IterLimit || st == Stopped {
			return s.result(st)
		}
		infeas := 0.0
		for i, j := range s.basis {
			if j >= s.n+s.m {
				infeas += s.xB[i]
			}
		}
		if infeas > tol {
			return s.result(Infeasible)
		}
		// Freeze artificials at zero for phase 2.
		for j := s.n + s.m; j < s.ncols; j++ {
			s.hi[j] = 0
		}
	}

	// Phase 2 prices s.cost directly (artificial entries are zero, same as
	// the old scratch copy). The stable slice identity matters: the pricer's
	// maintained reduced costs are keyed to the cost vector's address, so
	// pricing state survives from here across later warm reoptimizations of
	// this engine (reSolve), which price the same s.cost slice.
	st := s.iterate(s.cost[:s.ncols])
	return s.primalResult(st)
}

// primalResult assembles the solution (and optional basis snapshot) after the
// final phase-2 iterate; shared by the cold and warm solve paths.
func (s *simplex) primalResult(st Status) Result {
	if st != Optimal {
		return s.result(st)
	}
	// The solution vector is pooled on the engine: every structural index is
	// written below (nonbasic rest values, then basic values), so no zeroing
	// is needed. See the Result.X aliasing contract in lp.go.
	if cap(s.xsol) < s.n {
		s.xsol = make([]float64, s.n)
	}
	x := s.xsol[:s.n]
	for j := 0; j < s.n; j++ {
		if s.state[j] != stBasic {
			x[j] = s.nbValue(j)
		}
	}
	for i, j := range s.basis {
		if j < s.n {
			x[j] = s.xB[i]
		}
	}
	obj := 0.0
	for j := 0; j < s.n; j++ {
		obj += s.p.cost[j] * x[j]
	}
	r := s.result(Optimal)
	r.Obj = obj
	r.X = x
	if s.opt.WantDuals {
		if cap(s.ysol) < s.m {
			s.ysol = make([]float64, s.m)
		}
		s.computeDuals(s.cost[:s.ncols])
		r.Duals = s.ysol[:s.m]
		copy(r.Duals, s.y[:s.m])
	}
	if s.opt.SnapshotBasis {
		r.Basis = s.snapshot()
	}
	return r
}

// snapshot captures the final basis over the structural+slack columns. A
// basic artificial (necessarily at value zero in an optimal solution) is
// replaced by its row's slack — the two columns are parallel (±e_i), so the
// substituted basis stays nonsingular; if that slack is already basic the
// snapshot is abandoned (nil) rather than risking a broken warm start.
func (s *simplex) snapshot() *Basis {
	nm := s.n + s.m
	bs := &Basis{n: s.n, m: s.m,
		basis: make([]int32, s.m),
		state: make([]varState, nm),
	}
	copy(bs.state, s.state[:nm])
	for i, j := range s.basis {
		if j >= nm {
			sl := s.n + i
			if bs.state[sl] == stBasic {
				return nil
			}
			bs.state[sl] = stBasic
			j = sl
		}
		bs.basis[i] = int32(j)
	}
	return bs
}

// priceDantzig is the full-sweep pricing iteration — duals recomputed from
// scratch, most-negative-reduced-cost sweep — that Bland's anti-cycling mode
// routes through (lowest-index eligible column, which needs exact duals
// rather than the maintained reduced costs of pricing.go).
func (s *simplex) priceDantzig(cost []float64) (int, float64) {
	tol := s.opt.Tol

	// Duals: y = cB^T B^{-1} (a BTRAN).
	s.computeDuals(cost)

	enter := -1
	var enterDir float64 // +1: increase from lower/zero, -1: decrease from upper/zero
	best := tol
	for j := 0; j < s.ncols; j++ {
		st := s.state[j]
		if st == stBasic {
			continue
		}
		if s.hi[j]-s.lo[j] < 1e-13 && st != stFreeZero {
			continue // fixed variable can never usefully enter
		}
		d := cost[j]
		for k, i := range s.colIdx[j] {
			d -= s.y[i] * s.colVal[j][k]
		}
		var score float64
		var dir float64
		switch st {
		case stAtLower:
			if d < -tol {
				score, dir = -d, 1
			}
		case stAtUpper:
			if d > tol {
				score, dir = d, -1
			}
		case stFreeZero:
			if d < -tol {
				score, dir = -d, 1
			} else if d > tol {
				score, dir = d, -1
			}
		}
		if dir == 0 {
			continue
		}
		if s.bland {
			return j, dir
		}
		if score > best {
			best, enter, enterDir = score, j, dir
		}
	}
	return enter, enterDir
}

// ctxDone polls Options.Ctx every ctxPollIters iterations.
func (s *simplex) ctxDone() bool {
	return s.opt.Ctx != nil && s.iters%ctxPollIters == 0 && s.opt.Ctx.Err() != nil
}

// stopOr is the status of a solve whose basis could not be refactorized:
// Stopped when the factorization gave up on Options.Ctx, otherwise st.
func (s *simplex) stopOr(st Status) Status {
	if s.lu != nil && s.lu.stopped {
		return Stopped
	}
	return st
}

// iterate runs primal simplex iterations under the given cost vector until
// optimality, unboundedness, the iteration limit (IterLimit) or a done
// Options.Ctx (Stopped).
func (s *simplex) iterate(cost []float64) Status {
	tol := s.opt.Tol
	for {
		if s.iters >= s.opt.MaxIters {
			return IterLimit
		}
		if s.ctxDone() {
			return Stopped
		}
		s.iters++
		s.clock.Enter(PhasePricing)

		// Pricing: devex over the maintained reduced costs (pricing.go), or
		// the full sweep while Bland's anti-cycling rule is active (it needs
		// exact lowest-index semantics).
		fullSweep := s.bland
		var enter int
		var enterDir float64
		if fullSweep {
			s.pr.valid = false
			enter, enterDir = s.priceDantzig(cost)
		} else {
			enter, enterDir = s.priceIncremental(cost)
		}
		if enter == -1 {
			return Optimal
		}
		s.clock.Enter(PhaseRatioTest)

		// Pivot column w = B^{-1} A_enter (an FTRAN); wv.ind lists the
		// touched rows, so the ratio test skips every zero row.
		s.computePivotColumn(enter)

		if !fullSweep {
			// Verify the maintained reduced cost of the entering column
			// against its exact value, which is free given the FTRAN result:
			// d_q = c_q - cB·w. Drift beyond tolerance means the maintained
			// vector has degraded — resync and price again.
			dq := cost[enter]
			for _, i := range s.wv.ind {
				dq -= cost[s.basis[i]] * s.w[i]
			}
			if math.Abs(dq-s.pr.d[enter]) > priceDriftTol*(1+math.Abs(dq)) {
				s.resyncPricing(cost)
				continue
			}
			s.pr.d[enter] = dq
			if eligibleDir(s.state[enter], dq, tol) != enterDir {
				continue // no longer (or differently) eligible under exact d
			}
		}

		// Bounded ratio test. Entering moves by t >= 0 in direction enterDir;
		// basic variable i changes at rate delta_i = -enterDir * w[i].
		tMax := s.hi[enter] - s.lo[enter] // bound-to-bound distance
		if s.state[enter] == stFreeZero {
			tMax = Inf
		}
		leave := -1
		leaveToUpper := false
		t := tMax
		for _, i32 := range s.wv.ind {
			i := int(i32)
			delta := -enterDir * s.w[i]
			bj := s.basis[i]
			var ti float64
			var toUpper bool
			if delta > tol {
				if math.IsInf(s.hi[bj], 1) {
					continue
				}
				ti = (s.hi[bj] - s.xB[i]) / delta
				toUpper = true
			} else if delta < -tol {
				if math.IsInf(s.lo[bj], -1) {
					continue
				}
				ti = (s.lo[bj] - s.xB[i]) / delta
				toUpper = false
			} else {
				continue
			}
			if ti < 0 {
				ti = 0
			}
			if ti < t-1e-12 || (ti < t+1e-12 && leave >= 0 && math.Abs(s.w[i]) > math.Abs(s.w[leave])) {
				t = ti
				leave = i
				leaveToUpper = toUpper
			}
		}

		if math.IsInf(t, 1) {
			return Unbounded
		}
		s.clock.Enter(PhasePivot)

		// Track degeneracy to toggle Bland's rule.
		if t <= 1e-10 {
			s.stats.DegeneratePivots++
			s.stall++
			if s.stall > 60 {
				s.bland = true
			}
		} else {
			s.stall = 0
			s.bland = false
		}

		// Apply the step to basic values.
		if t != 0 {
			for _, i := range s.wv.ind {
				s.xB[i] += t * (-enterDir * s.w[i])
			}
		}

		if leave == -1 {
			// Bound-to-bound flip of the entering variable.
			s.stats.BoundFlips++
			if s.state[enter] == stAtLower {
				s.state[enter] = stAtUpper
			} else if s.state[enter] == stAtUpper {
				s.state[enter] = stAtLower
			} else {
				// Free variable with no blocking row: unbounded unless t finite.
				return Unbounded
			}
			continue
		}

		piv := s.w[leave]
		if math.Abs(piv) < 1e-11 {
			// Numerically hopeless pivot: undo the step, refactorize, retry.
			if t != 0 {
				for _, i := range s.wv.ind {
					s.xB[i] -= t * (-enterDir * s.w[i])
				}
			}
			s.stats.RefactorPivotQuality++
			if !s.refactorize() {
				return s.stopOr(IterLimit)
			}
			continue
		}

		// Basis exchange.
		s.stats.Pivots++
		out := s.basis[leave]
		if !fullSweep {
			// Fold the exchange into the maintained reduced costs and
			// pricing weights while the old basis representation (and the
			// pre-exchange basis/state arrays) are still in place.
			s.pricingUpdate(cost, enter, leave, out, piv, s.pr.d[enter], nil)
		}
		if leaveToUpper {
			s.state[out] = stAtUpper
		} else {
			s.state[out] = stAtLower
		}
		enterVal := s.nbValue(enter) + enterDir*t
		s.basis[leave] = enter
		s.state[enter] = stBasic
		s.xB[leave] = enterVal
		if !s.updateBasisRep(leave) {
			return s.stopOr(IterLimit)
		}

		if s.iters%256 == 0 {
			s.refresh()
			s.pr.valid = false // periodic resync curbs reduced-cost drift
		}
	}
}

// refresh recomputes basic values from the basis representation to curb
// drift: xB = B^{-1} (b - N x_N), a dense FTRAN. Every row may now violate a
// bound, so all rejoin the dual restore's leaving-row candidates.
func (s *simplex) refresh() {
	s.viol.fill(s.m)
	resid := s.residScratch()
	for j := 0; j < s.ncols; j++ {
		if s.state[j] == stBasic {
			continue
		}
		v := s.nbValue(j)
		if v == 0 {
			continue
		}
		for k, i := range s.colIdx[j] {
			resid[i] -= s.colVal[j][k] * v
		}
	}
	s.lu.ftranDense(resid, s.xB)
}

// refactorize rebuilds the sparse LU factorization (Markowitz pivoting) from
// the current basis. Returns false if the basis is singular or Options.Ctx
// stopped the factorization (s.lu.stopped). The basic values are refreshed
// from the new factorization.
func (s *simplex) refactorize() bool {
	s.stats.Refactorizations++
	s.clock.Enter(PhaseRefactorize)
	s.lu.ctx = s.opt.Ctx
	if !s.lu.factorize(s.m, s.basis, s.colIdx, s.colVal) {
		return false
	}
	s.noteFactorization()
	s.refresh()
	return true
}
