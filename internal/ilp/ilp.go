// Package ilp implements a mixed-integer linear programming solver on top of
// the bounded-variable simplex in package lp. It is this repository's
// replacement for ILOG CPLEX in the OptRouter reproduction: a depth-first
// branch-and-bound with LP-relaxation bounds, most-fractional branching,
// LP rounding heuristics, and optional warm-start incumbents.
//
// The solver proves optimality (it explores the full tree under admissible
// LP bounds), so routing solutions obtained through it inherit the paper's
// "cost-optimal" guarantee up to the configured tolerances.
package ilp

import (
	"context"
	"math"
	"time"

	"optrouter/internal/lp"
	"optrouter/internal/obs"
)

// Status is the outcome of a MILP solve.
type Status int

const (
	// Optimal means an incumbent was found and proven optimal.
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Feasible means an incumbent exists but limits stopped the proof.
	Feasible
	// Limit means a node/time limit was hit with no incumbent.
	Limit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Feasible:
		return "feasible"
	case Limit:
		return "limit"
	}
	return "?"
}

// Model is a MILP model: an LP plus integrality markers.
type Model struct {
	Prob  *lp.Problem
	isInt []bool
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{Prob: lp.NewProblem()}
}

// AddVar adds a variable with the given bounds, objective cost and
// integrality, returning its index.
func (m *Model) AddVar(lo, hi, cost float64, integer bool) int {
	j := m.Prob.AddVariable(lo, hi, cost)
	m.isInt = append(m.isInt, integer)
	return j
}

// AddBinary adds a {0,1} integer variable with the given cost.
func (m *Model) AddBinary(cost float64) int { return m.AddVar(0, 1, cost, true) }

// AddContinuous adds a continuous variable.
func (m *Model) AddContinuous(lo, hi, cost float64) int { return m.AddVar(lo, hi, cost, false) }

// AddConstraint forwards to the underlying LP and returns the row index.
func (m *Model) AddConstraint(coeffs []lp.Coef, sense lp.Sense, rhs float64) int {
	return m.Prob.AddConstraint(coeffs, sense, rhs)
}

// SetInteger changes the integrality of an existing variable.
func (m *Model) SetInteger(j int, integer bool) { m.isInt[j] = integer }

// IsInteger reports whether variable j is integer-constrained.
func (m *Model) IsInteger(j int) bool { return m.isInt[j] }

// NumVars returns the variable count.
func (m *Model) NumVars() int { return m.Prob.NumVars() }

// NumConstraints returns the constraint count.
func (m *Model) NumConstraints() int { return m.Prob.NumRows() }

// NumIntegerVars returns how many variables are integer-constrained.
func (m *Model) NumIntegerVars() int {
	n := 0
	for _, b := range m.isInt {
		if b {
			n++
		}
	}
	return n
}

// Options tunes the branch-and-bound.
type Options struct {
	// MaxNodes bounds explored nodes; 0 means effectively unlimited.
	MaxNodes int
	// TimeLimit stops the search after the given wall time; 0 = none. It
	// and Ctx reach into the node LPs (lp.Options.Ctx), so a long root LP
	// cannot outlast them.
	TimeLimit time.Duration
	// Ctx, if non-nil, cancels the search (termination TermCancelled). Used
	// by the parallel scheduler to abort a sweep.
	Ctx context.Context
	// Incumbent optionally provides a known integer-feasible solution
	// (a warm start); it must satisfy all constraints.
	Incumbent []float64
	// IntegralObjective asserts that every integer-feasible point has an
	// integral objective value, enabling stronger pruning (ceil bounds).
	IntegralObjective bool
	// NoPresolve disables both root presolves: bound propagation and the
	// structural LP reduction.
	NoPresolve bool
	// NoWarmStart disables carrying a parent node's LP basis into its
	// children (every node LP then solves cold from phase 1). Used by the
	// differential tests that pin warm and cold solves to identical answers.
	NoWarmStart bool
	// LP tunes the LP subsolver.
	LP lp.Options
	// Progress, if non-nil, is invoked every ProgressEvery explored nodes
	// and on every incumbent update with a live view of the search.
	Progress func(Progress)
	// ProgressEvery is the node interval between Progress calls (default 128).
	ProgressEvery int
	// Tracer, if non-nil, receives a span for the solve with incumbent and
	// termination events (see package obs). Nil disables tracing.
	Tracer *obs.Tracer
	// SpanAttrs are extra attributes stamped onto the solve span (callers use
	// them to identify the solve in a trace, e.g. the clip being routed).
	SpanAttrs []obs.Attr
	// Flight configures per-node search-event recording onto the solve span
	// (see obs.FlightOptions). Disabled by default.
	Flight obs.FlightOptions
}

// intTol is the integrality tolerance.
const intTol = 1e-6

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = math.MaxInt / 2
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 128
	}
	return o
}

// TerminationReason says why Solve stopped — unlike Status it distinguishes
// a time limit from a node limit from an LP failure, so timeout runs are
// separable from proven-optimal runs in experiment output.
type TerminationReason string

const (
	TermOptimal     TerminationReason = "optimal"       // full tree explored
	TermInfeasible  TerminationReason = "infeasible"    // proven empty
	TermTimeLimit   TerminationReason = "time-limit"    // Options.TimeLimit hit
	TermNodeLimit   TerminationReason = "node-limit"    // Options.MaxNodes hit
	TermLPIterLimit TerminationReason = "lp-iter-limit" // LP subsolver gave up
	TermUnbounded   TerminationReason = "lp-unbounded"  // relaxation unbounded
	TermCancelled   TerminationReason = "cancelled"     // Options.Ctx cancelled
)

// BoundPoint is one sample of the best-bound / incumbent gap over time.
type BoundPoint struct {
	Elapsed   time.Duration // since the start of the solve
	Nodes     int           // nodes explored at sample time
	Depth     int           // depth of the node being processed at the sample
	Open      int           // nodes still on the stack at the sample
	Bound     float64       // proven lower bound (-Inf before root solve)
	Incumbent float64       // best integer objective (+Inf before first)
}

// MILP phase names used in Stats.Phases (a partition of the solve's wall
// time, so the breakdown sums to Stats.Elapsed).
const (
	PhaseSetup     = "setup"     // incumbent check, bound snapshots
	PhasePresolve  = "presolve"  // root bound propagation
	PhaseRootLP    = "root_lp"   // the first LP relaxation
	PhaseNodeLP    = "node_lp"   // all subsequent LP re-solves
	PhaseHeuristic = "heuristic" // rounding heuristic + feasibility checks
	PhaseBranch    = "branch"    // branching-variable selection + child push
	PhaseSearch    = "search"    // node pop, bound application, pruning
)

// LPStats is a MILP solve's LP-subsolver effort, summed over its node LPs.
// Stats and core.SolveStats embed it.
type LPStats struct {
	LPSolves     int           // LP relaxations solved
	LPIters      int           // total simplex iterations
	LPWarmStarts int           // node LPs reoptimized from the parent basis
	LPFTRANNnz   int64         // sparse FTRAN result nonzeros (deterministic work)
	LPBTRANNnz   int64         // sparse BTRAN result nonzeros (deterministic work)
	LPTime       time.Duration // wall time inside the LP subsolver
	// LP sums the node LPs' telemetry counters; its PresolveRows and
	// PresolveCols are the root presolve's reductions (0 when presolve
	// found nothing or was disabled). The search runs on the reduced model.
	LP lp.Counters
}

// Stats are per-solve branch-and-bound statistics.
type Stats struct {
	Nodes    int // nodes explored
	MaxDepth int // deepest node processed
	LPStats
	Incumbents  int           // incumbent updates (including warm start)
	Elapsed     time.Duration // total wall time of the solve
	Termination TerminationReason
	// BoundTrace samples the (bound, incumbent) pair at the root, at every
	// incumbent update and at termination (capped at 1024 points).
	BoundTrace []BoundPoint
	// Phases attributes the solve's wall time to the Phase* constants above;
	// always collected (the clock ticks at node granularity, which is cheap).
	Phases obs.Breakdown
	// LPPhases aggregates the simplex-internal breakdown (pricing, ratio
	// test, ...) across all LP solves; populated only when
	// Options.LP.CollectPhases is set.
	LPPhases obs.Breakdown
}

// Gap returns the relative optimality gap (0 when proven optimal, +Inf
// when no incumbent or no bound exists).
func (s Stats) Gap() float64 {
	if len(s.BoundTrace) == 0 {
		return math.Inf(1)
	}
	last := s.BoundTrace[len(s.BoundTrace)-1]
	if math.IsInf(last.Incumbent, 1) || math.IsInf(last.Bound, -1) {
		return math.Inf(1)
	}
	denom := math.Max(1, math.Abs(last.Incumbent))
	return (last.Incumbent - last.Bound) / denom
}

// Progress is the live view handed to Options.Progress.
type Progress struct {
	Nodes     int           // nodes explored so far
	Open      int           // nodes still on the stack
	Incumbent float64       // best integer objective (+Inf if none yet)
	Bound     float64       // proven lower bound (-Inf before root solve)
	Elapsed   time.Duration // since the start of the solve
}

// Result is the outcome of Solve.
type Result struct {
	Status    Status
	Obj       float64   // incumbent objective (valid unless Limit/Infeasible)
	X         []float64 // incumbent solution
	Nodes     int       // branch-and-bound nodes explored
	LPIters   int       // total simplex iterations
	BestBound float64   // proven lower bound on the optimum
	Stats     Stats     // detailed per-solve statistics
}

// boundChange records one branching decision for undo.
type boundChange struct {
	j      int
	lo, hi float64 // new bounds
}

type node struct {
	changes []boundChange // all changes from root (inherited + own)
	depth   int
	bound   float64   // parent LP bound (for pruning before re-solve)
	basis   *lp.Basis // parent's optimal basis (shared, read-only warm start)
}

// Solve runs branch-and-bound to proven optimality (or a limit).
func (m *Model) Solve(opt Options) Result {
	opt = opt.withDefaults()
	start := time.Now()

	var (
		bestX    []float64
		bestObj  = math.Inf(1)
		haveInc  bool
		nodes    int
		lpIters  int
		bestBnd  = math.Inf(-1)
		hitLimit bool
		stats    Stats
		term     TerminationReason
		openLen  int
		curDepth int
	)
	span := opt.Tracer.Start("ilp.solve",
		append([]obs.Attr{
			obs.A("vars", m.Prob.NumVars()),
			obs.A("int_vars", m.NumIntegerVars()),
			obs.A("rows", m.Prob.NumRows()),
		}, opt.SpanAttrs...)...)
	flt := obs.NewFlight(span, opt.Flight)
	clock := obs.NewPhaseClock()
	clock.Enter(PhaseSetup)
	sample := func() {
		if len(stats.BoundTrace) >= 1024 {
			return
		}
		stats.BoundTrace = append(stats.BoundTrace, BoundPoint{
			Elapsed: time.Since(start), Nodes: nodes, Depth: curDepth,
			Open: openLen, Bound: bestBnd, Incumbent: bestObj,
		})
	}
	progress := func() {
		if opt.Progress != nil {
			opt.Progress(Progress{
				Nodes: nodes, Open: openLen, Incumbent: bestObj,
				Bound: bestBnd, Elapsed: time.Since(start),
			})
		}
	}
	finish := func(r Result) Result {
		clock.Stop()
		stats.Phases = clock.Breakdown()
		stats.Nodes = nodes
		stats.LPIters = lpIters
		stats.Elapsed = time.Since(start)
		switch {
		case term != "":
			stats.Termination = term
		case r.Status == Optimal:
			stats.Termination = TermOptimal
		case r.Status == Infeasible:
			stats.Termination = TermInfeasible
		default:
			stats.Termination = TermNodeLimit
		}
		sample()
		r.Stats = stats
		span.SetAttr("nodes", nodes)
		span.SetAttr("lp_solves", stats.LPSolves)
		span.SetAttr("status", r.Status.String())
		span.SetAttr("termination", string(stats.Termination))
		span.SetAttr("lp_iters", stats.LPIters)
		for k := range lp.NumCounters {
			span.SetAttr("lp_"+k.String(), stats.LP[k])
		}
		// Phase breakdown on the span, so trace consumers (traceview) can
		// attribute solve wall time without access to Stats.
		span.SetAttr("phases_ms", stats.Phases.MS())
		flt.Finish()
		span.End()
		return r
	}

	// nodeEvent feeds the flight recorder one structured record per search
	// node: the action taken (prune / bounds-infeasible / infeasible /
	// lp-limit / fathom / integer / branch), the node's position (n, d) and
	// the global bound/incumbent state. bestBnd starts at -Inf and bestObj
	// at +Inf; JSON cannot represent infinities (a marshal failure would
	// permanently poison the tracer), so those attrs ride only once finite.
	// With recording off (the default) fl is nil and each call costs one
	// comparison.
	nodeEvent := func(act string, depth int, extra ...obs.Attr) {
		if flt == nil {
			return
		}
		attrs := make([]obs.Attr, 0, 5+len(extra))
		attrs = append(attrs, obs.A("act", act), obs.A("n", nodes), obs.A("d", depth))
		if !math.IsInf(bestBnd, -1) {
			attrs = append(attrs, obs.A("bnd", bestBnd))
		}
		if haveInc {
			attrs = append(attrs, obs.A("inc", bestObj))
		}
		flt.Event("node", append(attrs, extra...)...)
	}

	if opt.Incumbent != nil {
		if ok, obj := m.CheckFeasible(opt.Incumbent, intTol); ok {
			bestX = append([]float64(nil), opt.Incumbent...)
			bestObj = obj
			haveInc = true
			stats.Incumbents++
			span.Event("incumbent", obs.A("obj", obj), obs.A("source", "warm-start"))
		}
	}

	// cutoff returns the pruning threshold given the incumbent (+Inf while
	// there is none).
	cutoff := func() float64 {
		if !haveInc {
			return math.Inf(1)
		}
		if opt.IntegralObjective {
			// Any strictly better integral solution is <= bestObj - 1.
			return bestObj - 1 + 1e-7
		}
		return bestObj - 1e-7
	}

	// budget reports which of the time limit and the caller's context has
	// stopped the solve ("" while neither has). The node LPs poll lpCtx,
	// which is done only once budget is not "".
	budget := func() TerminationReason {
		if opt.TimeLimit > 0 && time.Since(start) >= opt.TimeLimit {
			return TermTimeLimit
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			return TermCancelled
		}
		return ""
	}
	lpCtx := opt.Ctx
	if opt.TimeLimit > 0 {
		if lpCtx == nil {
			lpCtx = context.Background()
		}
		var cancel context.CancelFunc
		lpCtx, cancel = context.WithDeadline(lpCtx, start.Add(opt.TimeLimit))
		defer cancel()
	}

	// Save root bounds for restoration.
	nv := m.Prob.NumVars()
	rootLo := make([]float64, nv)
	rootHi := make([]float64, nv)
	for j := 0; j < nv; j++ {
		rootLo[j], rootHi[j] = m.Prob.VarBounds(j)
	}
	restore := func() {
		for j := 0; j < nv; j++ {
			m.Prob.SetVarBounds(j, rootLo[j], rootHi[j])
		}
	}
	defer restore()

	// Root presolve: propagate bounds (transparent — the deferred restore
	// puts the caller's bounds back). The tightened bounds become the
	// effective root for the search below; node bound changes re-apply on
	// top of them via searchLo/Hi.
	clock.Enter(PhasePresolve)
	if !opt.NoPresolve {
		if !m.presolve(8) {
			restore()
			if haveInc {
				// The incumbent passed CheckFeasible against the original
				// bounds; a presolve infeasibility then indicates numerical
				// tolerance mismatch — trust the incumbent.
				bestBnd = bestObj
				return finish(Result{Status: Optimal, Obj: bestObj, X: bestX, BestBound: bestObj})
			}
			return finish(Result{Status: Infeasible})
		}
	}

	// Structural LP presolve: eliminate rows and columns (singletons, forced
	// rows, fixed variables) from the root problem and run the whole search
	// on the reduced model. Objective accounting stays in the FULL space —
	// every LP bound gets ObjOffset added before it meets a cutoff, and every
	// accepted incumbent is postsolved back to a full-space vector before it
	// is stored or checked. Node LPs solve the reduced model as it stands.
	search := m
	objOff := 0.0
	var ps *lp.Presolved
	if !opt.NoPresolve {
		ps = lp.PresolveProblem(m.Prob, m.isInt)
		if ps != nil {
			if ps.Infeasible {
				restore()
				if haveInc {
					// Same tolerance-mismatch reasoning as the bound
					// propagation above: a checked incumbent outranks a
					// presolve infeasibility verdict.
					bestBnd = bestObj
					return finish(Result{Status: Optimal, Obj: bestObj, X: bestX, BestBound: bestObj})
				}
				return finish(Result{Status: Infeasible})
			}
			search = &Model{Prob: ps.Reduced, isInt: ps.MapMask(m.isInt)}
			objOff = ps.ObjOffset
			stats.LP[lp.PresolveRows] = ps.RowsRemoved
			stats.LP[lp.PresolveCols] = ps.ColsRemoved
		}
	}
	// toFull maps a reduced-space point back to the caller's variable space
	// (identity when presolve found nothing to remove).
	toFull := func(x []float64) []float64 {
		if ps != nil {
			return ps.Postsolve(x)
		}
		return x
	}
	snv := search.Prob.NumVars()
	searchLo := make([]float64, snv)
	searchHi := make([]float64, snv)
	for j := 0; j < snv; j++ {
		searchLo[j], searchHi[j] = search.Prob.VarBounds(j)
	}
	restoreNode := func() {
		for j := 0; j < snv; j++ {
			search.Prob.SetVarBounds(j, searchLo[j], searchHi[j])
		}
	}

	stack := []node{{bound: math.Inf(-1)}}
	rootBoundSet := false
	clock.Enter(PhaseSearch)

	for len(stack) > 0 {
		if nodes >= opt.MaxNodes {
			hitLimit = true
			term = TermNodeLimit
			break
		}
		if t := budget(); t != "" {
			hitLimit = true
			term = t
			break
		}
		openLen = len(stack)
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		curDepth = nd.depth
		if nd.depth > stats.MaxDepth {
			stats.MaxDepth = nd.depth
		}

		if nd.bound > cutoff() {
			nodeEvent("prune", nd.depth, obs.A("lb", nd.bound))
			continue // parent bound already dominated
		}

		// Apply node bounds on top of the presolved root.
		restoreNode()
		feasibleBounds := true
		for _, bc := range nd.changes {
			lo, hi := search.Prob.VarBounds(bc.j)
			nlo, nhi := math.Max(lo, bc.lo), math.Min(hi, bc.hi)
			if nlo > nhi {
				feasibleBounds = false
				break
			}
			search.Prob.SetVarBounds(bc.j, nlo, nhi)
		}
		if !feasibleBounds {
			nodeEvent("bounds-infeasible", nd.depth)
			continue
		}

		if stats.LPSolves == 0 {
			clock.Enter(PhaseRootLP)
		} else {
			clock.Enter(PhaseNodeLP)
		}
		lpOpt := opt.LP
		lpOpt.Ctx = lpCtx
		if stats.LPSolves == 0 && lpOpt.Algorithm == lp.AlgorithmAuto {
			// The root LP has no warm basis to restore; the dual simplex
			// from the all-slack basis with exact steepest-edge pricing is
			// the stronger cold algorithm on these models. Node LPs keep
			// the warm-start dual-restore path.
			lpOpt.Algorithm = lp.AlgorithmDual
		}
		if !opt.NoWarmStart {
			// Snapshot every optimal basis so children can reoptimize with
			// dual pivots instead of a cold phase-1 start.
			lpOpt.SnapshotBasis = true
			lpOpt.WarmStart = nd.basis
		}
		lpStart := time.Now()
		res := search.Prob.Solve(lpOpt)
		stats.LPTime += time.Since(lpStart)
		clock.Enter(PhaseSearch)
		stats.LPPhases = stats.LPPhases.Merge(res.Stats.Phases)
		if res.Stats.WarmStarted {
			stats.LPWarmStarts++
		}
		nodes++
		lpIters += res.Iters
		stats.LPSolves++
		stats.LPFTRANNnz += int64(res.Stats.FTRANNnz)
		stats.LPBTRANNnz += int64(res.Stats.BTRANNnz)
		stats.LP.Add(res.Stats.Counters)
		if nodes%opt.ProgressEvery == 0 {
			progress()
		}
		// Per-node LP effort for the flight recorder (the guard keeps the
		// attr slice from allocating when recording is off).
		var lpAttrs []obs.Attr
		if flt != nil {
			lpAttrs = []obs.Attr{
				obs.A("lp_iters", res.Iters),
				obs.A("pivots", res.Stats.Pivots),
				obs.A("etas", res.Stats.EtaPivots),
				obs.A("warm", res.Stats.WarmStarted),
			}
		}
		switch res.Status {
		case lp.Infeasible:
			nodeEvent("infeasible", nd.depth, lpAttrs...)
			continue
		case lp.Unbounded:
			// Integer problem unbounded or LP artifact; treat as no-prune
			// and branch on first fractional... with no LP point we cannot
			// branch meaningfully; report as limit.
			hitLimit = true
			if term == "" {
				term = TermUnbounded
			}
			continue
		case lp.Stopped, lp.IterLimit:
			hitLimit = true
			if res.Status == lp.Stopped {
				// lpCtx is done only once the budget is; the loop head stops too.
				term = budget()
			} else if term == "" {
				term = TermLPIterLimit
			}
			nodeEvent("lp-limit", nd.depth, lpAttrs...)
			continue
		}

		lb := res.Obj + objOff
		if opt.IntegralObjective {
			lb = math.Ceil(lb - 1e-7)
		}
		if !rootBoundSet {
			bestBnd = lb
			rootBoundSet = true
			sample()
		}
		if lb > cutoff() {
			if flt != nil {
				nodeEvent("fathom", nd.depth, append(lpAttrs, obs.A("lb", lb))...)
			}
			continue
		}

		// Find most fractional integer variable.
		clock.Enter(PhaseBranch)
		branchVar := -1
		worst := intTol
		for j := 0; j < snv; j++ {
			if !search.isInt[j] {
				continue
			}
			f := res.X[j] - math.Floor(res.X[j])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst = frac
				branchVar = j
			}
		}

		if branchVar == -1 {
			// Integer feasible. Round in the reduced space (postsolve then
			// derives eliminated variables from exact integer values) and
			// evaluate the objective with the original full-space costs.
			full := toFull(roundX(search, res.X))
			obj := roundedObj(m, full, opt)
			if obj < bestObj-1e-9 {
				bestObj = obj
				bestX = full
				haveInc = true
				stats.Incumbents++
				sample()
				span.Event("incumbent", obs.A("obj", obj), obs.A("node", nodes))
				progress()
			}
			if flt != nil {
				nodeEvent("integer", nd.depth, append(lpAttrs, obs.A("lb", lb))...)
			}
			continue
		}

		// Rounding heuristic: snap all integer vars and test feasibility.
		if nd.depth < 12 {
			clock.Enter(PhaseHeuristic)
			// Feasibility is always certified against the FULL model: the
			// rounded point is postsolved first, so eliminated rows and
			// bounds are rechecked in the caller's space.
			cand := toFull(roundX(search, res.X))
			if ok, obj := m.CheckFeasible(cand, intTol); ok && obj < bestObj-1e-9 {
				bestObj = obj
				bestX = cand
				haveInc = true
				stats.Incumbents++
				sample()
				span.Event("incumbent", obs.A("obj", obj), obs.A("node", nodes), obs.A("source", "rounding"))
				progress()
			}
			clock.Enter(PhaseBranch)
		}

		// Branch: explore the side nearest the LP value first (pushed last).
		xv := res.X[branchVar]
		fl := math.Floor(xv)
		dn := node{
			changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, math.Inf(-1), fl}),
			depth:   nd.depth + 1,
			bound:   lb,
			basis:   res.Basis,
		}
		up := node{
			changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, fl + 1, math.Inf(1)}),
			depth:   nd.depth + 1,
			bound:   lb,
			basis:   res.Basis,
		}
		if xv-fl > 0.5 {
			stack = append(stack, dn, up) // explore up first
		} else {
			stack = append(stack, up, dn) // explore down first
		}
		if flt != nil {
			nodeEvent("branch", nd.depth, append(lpAttrs,
				obs.A("lb", lb), obs.A("var", branchVar), obs.A("frac", worst))...)
		}
	}

	r := Result{Nodes: nodes, LPIters: lpIters, BestBound: bestBnd}
	switch {
	case haveInc && !hitLimit:
		r.Status = Optimal
		r.Obj = bestObj
		r.X = bestX
		r.BestBound = bestObj
		bestBnd = bestObj
	case haveInc:
		r.Status = Feasible
		r.Obj = bestObj
		r.X = bestX
	case hitLimit:
		r.Status = Limit
	default:
		r.Status = Infeasible
	}
	return finish(r)
}

// roundX snaps integer variables of x to the nearest integer.
func roundX(m *Model, x []float64) []float64 {
	out := append([]float64(nil), x...)
	for j, isInt := range m.isInt {
		if isInt {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

func roundedObj(m *Model, x []float64, opt Options) float64 {
	obj := 0.0
	for j := 0; j < m.Prob.NumVars(); j++ {
		v := x[j]
		if m.isInt[j] {
			v = math.Round(v)
		}
		obj += m.Prob.Cost(j) * v
	}
	return obj
}

// CheckFeasible verifies x against all constraints, variable bounds and
// integrality; it returns feasibility and the objective value of x.
func (m *Model) CheckFeasible(x []float64, tol float64) (bool, float64) {
	if tol == 0 {
		tol = 1e-6
	}
	if len(x) != m.Prob.NumVars() {
		return false, 0
	}
	obj := 0.0
	for j := 0; j < m.Prob.NumVars(); j++ {
		lo, hi := m.Prob.VarBounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return false, 0
		}
		if m.isInt[j] && math.Abs(x[j]-math.Round(x[j])) > tol {
			return false, 0
		}
		obj += m.Prob.Cost(j) * x[j]
	}
	for i := 0; i < m.Prob.NumRows(); i++ {
		coeffs, sense, rhs := m.Prob.Row(i)
		sum := 0.0
		for _, c := range coeffs {
			sum += c.Val * x[c.Var]
		}
		switch sense {
		case lp.LE:
			if sum > rhs+1e-6 {
				return false, 0
			}
		case lp.GE:
			if sum < rhs-1e-6 {
				return false, 0
			}
		case lp.EQ:
			if math.Abs(sum-rhs) > 1e-6 {
				return false, 0
			}
		}
	}
	return true, obj
}
