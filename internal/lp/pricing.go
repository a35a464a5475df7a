package lp

// pricing.go is the devex pricing layer of the primal simplex. Three
// mechanisms between them remove the per-iteration BTRAN of the basic cost
// vector, the engine's dominant work item on the routing LPs:
//
//   - Incremental reduced costs: d_j = c_j - y·a_j is maintained across
//     pivots with the textbook update d'_j = d_j - (d_q/alpha_rq)·alpha_rj,
//     where the pivot-row alphas come from one hyper-sparse BTRAN of e_r —
//     usually far sparser than the basic-cost BTRAN it replaces. The
//     maintained value of the entering column is verified against the exact
//     FTRAN result before every pivot; drift forces a resync (one BTRAN) and
//     a re-price, and an "optimal" verdict is only ever issued on freshly
//     recomputed duals, so the maintenance is a pure work optimization.
//   - Weighted pricing: devex reference weights scale the entering score to
//     |d_j|^2/w_j, cutting the iteration count on degenerate warm-started
//     node LPs. A weight overflowing devexWeightMax starts a fresh reference
//     framework (counted in Stats.Counters[RefResets]).
//   - Candidate-list partial pricing: each iteration first prices a small
//     retained list of attractive columns; only when the list yields no
//     eligible column does a full sweep over the maintained reduced costs
//     run (rebuilding the list). Iterations served by the list alone are
//     counted in Stats.CandidateHits.
//
// All of this is selection heuristics: any eligible entering column keeps
// the simplex exact, Bland's anti-cycling rule still takes over on stalls
// (routing through the full sweep priceDantzig), and optimality/infeasibility
// verdicts never rest on maintained state.

const (
	// candListCap bounds the candidate list. Small enough that list pricing
	// is O(1) per iteration, large enough that rebuild sweeps are rare.
	candListCap = 48
	// devexWeightMax triggers a reference-framework reset: weights measured
	// against a framework this far in the past approximate nothing.
	devexWeightMax = 1e12
	// priceDriftTol is the relative disagreement between a maintained
	// reduced cost and its exact recomputation that forces a resync.
	priceDriftTol = 1e-7
)

// colAccum is a stamped dense accumulator over columns: constant-time
// add/at/reset regardless of how many columns the previous use touched.
// Same idea as spVec in ftran.go, over the column space instead of rows.
type colAccum struct {
	val   []float64
	stamp []uint32
	epoch uint32
	ind   []int32
}

func (a *colAccum) grow(n int) {
	if len(a.val) >= n {
		return
	}
	a.val = make([]float64, n)
	a.stamp = make([]uint32, n)
	a.ind = make([]int32, 0, n)
	a.epoch = 0
}

func (a *colAccum) begin() {
	a.epoch++
	if a.epoch == 0 { // wrapped: stamps are ambiguous, clear them
		for i := range a.stamp {
			a.stamp[i] = 0
		}
		a.epoch = 1
	}
	a.ind = a.ind[:0]
}

func (a *colAccum) add(j int32, v float64) {
	if a.stamp[j] != a.epoch {
		a.stamp[j] = a.epoch
		a.val[j] = 0
		a.ind = append(a.ind, j)
	}
	a.val[j] += v
}

func (a *colAccum) at(j int32) float64 {
	if a.stamp[j] == a.epoch {
		return a.val[j]
	}
	return 0
}

// pricer holds the maintained pricing state of one simplex engine. It lives
// on the engine (pooled, zero steady-state allocations) and survives warm
// reoptimizations: reduced costs depend only on the cost vector and the
// basis, both of which a bound-change warm start preserves.
type pricer struct {
	// Maintained reduced costs, valid while costPtr identifies the cost
	// vector they were computed against (phase transitions switch vectors).
	d       []float64
	valid   bool
	costPtr *float64

	// Devex reference weights per column, initialized to 1 (the reference
	// framework).
	weight []float64

	alphaAcc colAccum // pivot-row alphas alpha_rj = rho·a_j

	cand      []int32   // candidate list (column indices)
	candScore []float64 // scores at insertion time (replacement policy only)
}

func (pr *pricer) grow(ncols int) {
	if len(pr.d) >= ncols {
		return
	}
	old := len(pr.weight)
	pr.d = append(pr.d, make([]float64, ncols-len(pr.d))...)
	pr.weight = append(pr.weight, make([]float64, ncols-old)...)
	for j := old; j < ncols; j++ {
		pr.weight[j] = 1
	}
	pr.alphaAcc.grow(ncols)
	if cap(pr.cand) < candListCap {
		pr.cand = make([]int32, 0, candListCap)
		pr.candScore = make([]float64, 0, candListCap)
	}
}

// resetWeights starts a fresh reference framework (all weights 1) and
// records the reset.
func (s *simplex) resetWeights() {
	pr := &s.pr
	for j := range pr.weight {
		pr.weight[j] = 1
	}
	s.stats.Counters[RefResets]++
}

// eligibleDir returns the movement direction of a profitable entering
// column (+1 off its lower bound, -1 off its upper) or 0 when the reduced
// cost d does not make column state st eligible.
func eligibleDir(st varState, d, tol float64) float64 {
	switch st {
	case stAtLower:
		if d < -tol {
			return 1
		}
	case stAtUpper:
		if d > tol {
			return -1
		}
	case stFreeZero:
		if d < -tol {
			return 1
		}
		if d > tol {
			return -1
		}
	}
	return 0
}

// resyncPricing recomputes the duals (one BTRAN of the basic costs) and all
// reduced costs from scratch, re-validating the maintained state.
func (s *simplex) resyncPricing(cost []float64) {
	pr := &s.pr
	if s.ncols == 0 {
		pr.valid = false
		return
	}
	pr.grow(s.ncols)
	s.computeDuals(cost)
	y := s.y
	for j := 0; j < s.ncols; j++ {
		if s.state[j] == stBasic {
			pr.d[j] = 0
			continue
		}
		d := cost[j]
		for k, i := range s.colIdx[j] {
			d -= y[i] * s.colVal[j][k]
		}
		pr.d[j] = d
	}
	pr.valid = true
	pr.costPtr = &cost[0]
}

// rowTimesA accumulates vec·A over all engine columns (structural, slack,
// artificial) into acc, driven by the nonzeros of vec — a row vector in
// basis-row space (the pivot row rho). Row-driven access means only columns
// actually intersecting vec's pattern are touched, which is what makes
// incremental pricing cheaper than a full sweep.
func (s *simplex) rowTimesA(vec *spVec, acc *colAccum) {
	acc.grow(s.ncols)
	acc.begin()
	val := vec.val
	n32 := int32(s.n)
	for _, i := range vec.ind {
		v := val[i]
		if v == 0 {
			continue
		}
		r := &s.p.rows[i]
		for k, j := range r.idx {
			acc.add(j, v*r.val[k])
		}
		acc.add(n32+i, v) // slack column of row i
	}
	// Artificial columns are ±e_row; entries of val outside the tracked
	// nonzeros are guaranteed zero (see computeDuals), so this is exact.
	for j := s.n + s.m; j < s.ncols; j++ {
		i := s.colIdx[j][0]
		if v := val[i]; v != 0 {
			acc.add(int32(j), v*s.colVal[j][0])
		}
	}
}

// priceIncremental returns the entering column and direction under the
// maintained reduced costs: candidate list first, full sweep on a miss,
// resync-and-retry before ever declaring optimality. enter == -1 therefore
// always rests on freshly recomputed duals.
func (s *simplex) priceIncremental(cost []float64) (int, float64) {
	if s.ncols == 0 {
		return -1, 0 // empty problem (possible after heavy presolve)
	}
	pr := &s.pr
	tol := feasTol
	synced := false
	if !pr.valid || pr.costPtr != &cost[0] {
		s.resyncPricing(cost)
		synced = true
	}
	for {
		if e, dir := s.priceCandidates(tol); e >= 0 {
			s.stats.Counters[CandidateHits]++
			return e, dir
		}
		if e, dir := s.priceSweep(tol); e >= 0 {
			return e, dir
		}
		if synced {
			return -1, 0
		}
		s.resyncPricing(cost)
		synced = true
	}
}

// priceCandidates prices only the retained candidate list, compacting dead
// entries (basic or fixed columns) in place. Returns -1 on a miss.
func (s *simplex) priceCandidates(tol float64) (int, float64) {
	pr := &s.pr
	live := pr.cand[:0]
	best := -1
	var bestDir, bestScore float64
	for _, j32 := range pr.cand {
		j := int(j32)
		st := s.state[j]
		if st == stBasic || (s.hi[j]-s.lo[j] < 1e-13 && st != stFreeZero) {
			continue
		}
		live = append(live, j32)
		d := pr.d[j]
		dir := eligibleDir(st, d, tol)
		if dir == 0 {
			continue
		}
		if score := d * d / pr.weight[j]; score > bestScore {
			best, bestDir, bestScore = j, dir, score
		}
	}
	pr.cand = live
	pr.candScore = pr.candScore[:len(live)]
	return best, bestDir
}

// priceSweep scans every column's maintained reduced cost — no per-column
// dot products, the sweep is O(ncols) flat — returning the best weighted
// score and rebuilding the candidate list with the runners-up.
func (s *simplex) priceSweep(tol float64) (int, float64) {
	pr := &s.pr
	pr.cand = pr.cand[:0]
	pr.candScore = pr.candScore[:0]
	best := -1
	var bestDir, bestScore float64
	minIdx := 0 // index of the weakest retained candidate
	for j := 0; j < s.ncols; j++ {
		st := s.state[j]
		if st == stBasic || (s.hi[j]-s.lo[j] < 1e-13 && st != stFreeZero) {
			continue
		}
		d := pr.d[j]
		dir := eligibleDir(st, d, tol)
		if dir == 0 {
			continue
		}
		score := d * d / pr.weight[j]
		if score > bestScore {
			best, bestDir, bestScore = j, dir, score
		}
		if len(pr.cand) < candListCap {
			pr.cand = append(pr.cand, int32(j))
			pr.candScore = append(pr.candScore, score)
			if score < pr.candScore[minIdx] {
				minIdx = len(pr.cand) - 1
			}
		} else if score > pr.candScore[minIdx] {
			pr.cand[minIdx] = int32(j)
			pr.candScore[minIdx] = score
			for k, sc := range pr.candScore {
				if sc < pr.candScore[minIdx] {
					minIdx = k
				}
			}
		}
	}
	return best, bestDir
}

// pricingUpdate folds a basis exchange — entering column enter with pivot
// column w/wv, leaving row r whose basic variable is out — into the
// maintained reduced costs and devex weights. It must run against the OLD
// basis representation (before updateBasisRep) and before the basis/state
// arrays are mutated: the pivot row rho is taken under the pre-exchange
// basis. dq is the exact reduced cost of the entering column.
//
// rho non-nil means the caller (the dual path) already materialized the
// pivot row AND accumulated its alphas into alphaAcc; nil makes this
// function compute both (one hyper-sparse BTRAN of e_r).
func (s *simplex) pricingUpdate(cost []float64, enter, r, out int, piv, dq float64, rho *spVec) {
	pr := &s.pr
	if !pr.valid || pr.costPtr != &cost[0] {
		return // maintained state is stale; the next price resyncs anyway
	}
	if rho == nil {
		s.invRow(r)
		s.rowTimesA(&s.rhov, &pr.alphaAcc)
	}
	ratio := dq / piv
	gq := pr.weight[enter]
	if gq < 1 {
		gq = 1
	}

	overflow := false
	for _, j32 := range pr.alphaAcc.ind {
		j := int(j32)
		a := pr.alphaAcc.val[j32]
		if j == enter {
			continue
		}
		if s.state[j] == stBasic {
			if j != out {
				continue // other basic columns keep d = 0
			}
			pr.d[j] -= ratio * a // out: alpha = 1, so d becomes -d_q/piv
			continue
		}
		pr.d[j] -= ratio * a
		eta := a / piv
		if g := eta * eta * gq; g > pr.weight[j] {
			pr.weight[j] = g
			if g > devexWeightMax {
				overflow = true
			}
		}
	}
	pr.d[enter] = 0
	// The leaving variable's reference weight.
	g := gq / (piv * piv)
	if g < 1 {
		g = 1
	}
	pr.weight[out] = g
	if g > devexWeightMax {
		overflow = true
	}
	if overflow {
		s.resetWeights()
	}
}
