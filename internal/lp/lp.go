// Package lp implements sparse linear programming with a bounded-variable,
// two-phase revised simplex method.
//
// Problems are stated in the form
//
//	minimize    c'x
//	subject to  row_i: a_i'x {<=,=,>=} b_i
//	            l <= x <= u
//
// where bounds may be infinite. There is one production path: the basis is
// a sparse LU factorization kept current by Forrest-Tomlin updates
// (factor.go, ft.go, ftran.go); the primal simplex is artificial-based two-
// phase (big-M free) with devex pricing over incrementally maintained reduced
// costs (pricing.go) and a Bland's-rule fallback for anti-cycling; warm
// starts and the optional primary dual simplex restore primal feasibility
// with the bound-flipping dual ratio test (dual.go, algorithm.go) before a
// final primal pass certifies optimality. It is the LP engine underneath the
// MILP branch-and-bound in package ilp, which in turn is this repository's
// stand-in for CPLEX in the OptRouter reproduction.
package lp

import (
	"context"
	"fmt"
	"math"

	"optrouter/internal/obs"
)

// Inf is positive infinity, for unbounded variable bounds.
var Inf = math.Inf(1)

// Sense is the relational sense of a linear constraint.
type Sense int

const (
	LE Sense = iota // a'x <= b
	GE              // a'x >= b
	EQ              // a'x == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Coef is one nonzero coefficient of a constraint row.
type Coef struct {
	Var int     // variable index
	Val float64 // coefficient
}

// Status is the outcome of an LP solve.
type Status int

const (
	// Optimal means a proven-optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraint system admits no solution.
	Infeasible
	// Unbounded means the objective is unbounded below over the feasible set.
	Unbounded
	// IterLimit means the iteration limit was exhausted before convergence.
	IterLimit
	// Stopped means Options.Ctx was done before the solve finished.
	Stopped
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Stopped:
		return "stopped"
	}
	return "?"
}

// Problem is a mutable LP model. Variables and constraints are added
// incrementally; bounds may be changed between solves (as branch-and-bound
// does).
type Problem struct {
	cost  []float64
	lo    []float64
	hi    []float64
	names []string

	rows   []row
	senses []Sense
	rhs    []float64

	// engine caches the simplex state of the last snapshot-enabled solve so a
	// following warm-started solve can reoptimize in place — no column
	// rebuild, no basis refactorization. mutGen invalidates it on structural
	// mutations (new variables/rows, cost changes); bound changes keep it,
	// which is exactly the branch-and-bound access pattern. Solves using
	// SnapshotBasis/WarmStart are therefore not safe concurrently on a
	// shared Problem (plain Solve remains read-only).
	engine *simplex
	mutGen uint64
}

type row struct {
	idx []int32
	val []float64
}

// NewProblem returns an empty problem.
func NewProblem() *Problem { return &Problem{} }

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of constraints added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVariable adds a variable with bounds [lo, hi] and objective coefficient
// cost, returning its index.
func (p *Problem) AddVariable(lo, hi, cost float64) int {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable bounds inverted: [%g, %g]", lo, hi))
	}
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, "")
	p.mutGen++
	return len(p.cost) - 1
}

// SetName attaches a diagnostic name to variable j.
func (p *Problem) SetName(j int, name string) { p.names[j] = name }

// Name returns the diagnostic name of variable j (may be empty).
func (p *Problem) Name(j int) string {
	if p.names[j] != "" {
		return p.names[j]
	}
	return fmt.Sprintf("x%d", j)
}

// SetVarBounds replaces the bounds of variable j.
func (p *Problem) SetVarBounds(j int, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable bounds inverted: [%g, %g]", lo, hi))
	}
	p.lo[j] = lo
	p.hi[j] = hi
}

// VarBounds returns the current bounds of variable j.
func (p *Problem) VarBounds(j int) (lo, hi float64) { return p.lo[j], p.hi[j] }

// SetCost replaces the objective coefficient of variable j.
func (p *Problem) SetCost(j int, c float64) {
	p.cost[j] = c
	p.mutGen++
}

// Cost returns the objective coefficient of variable j.
func (p *Problem) Cost(j int) float64 { return p.cost[j] }

// AddConstraint adds the row sum(coeffs) sense rhs and returns its index.
// Coefficients referencing the same variable twice are summed.
func (p *Problem) AddConstraint(coeffs []Coef, sense Sense, rhs float64) int {
	merged := map[int]float64{}
	for _, c := range coeffs {
		if c.Var < 0 || c.Var >= len(p.cost) {
			panic(fmt.Sprintf("lp: constraint references unknown variable %d", c.Var))
		}
		merged[c.Var] += c.Val
	}
	var r row
	for _, c := range coeffs {
		v, seen := merged[c.Var]
		if !seen {
			continue // already emitted
		}
		delete(merged, c.Var)
		if v == 0 {
			continue
		}
		r.idx = append(r.idx, int32(c.Var))
		r.val = append(r.val, v)
	}
	p.rows = append(p.rows, r)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
	p.mutGen++
	return len(p.rows) - 1
}

// NumNonzeros returns the number of structural nonzero coefficients across
// all constraint rows (the model's matrix density, reported in benchmarks).
func (p *Problem) NumNonzeros() int {
	n := 0
	for i := range p.rows {
		n += len(p.rows[i].idx)
	}
	return n
}

// Row returns the coefficients, sense and rhs of constraint i.
func (p *Problem) Row(i int) (coeffs []Coef, sense Sense, rhs float64) {
	r := p.rows[i]
	coeffs = make([]Coef, len(r.idx))
	for k := range r.idx {
		coeffs[k] = Coef{Var: int(r.idx[k]), Val: r.val[k]}
	}
	return coeffs, p.senses[i], p.rhs[i]
}

// Algorithm selects the simplex variant of a cold solve.
type Algorithm int

const (
	// AlgorithmAuto (the zero value) resolves to AlgorithmPrimal for plain
	// solves. The MILP layer (package ilp) resolves it to AlgorithmDual for
	// the root LP, where the all-slack dual start skips phase 1 entirely.
	AlgorithmAuto Algorithm = iota
	// AlgorithmPrimal is the bounded-variable two-phase primal simplex
	// (artificial-based phase 1), the engine's original algorithm.
	AlgorithmPrimal
	// AlgorithmDual runs the dual simplex as the primary algorithm: an
	// all-slack basis made dual feasible by resting each column on its
	// reduced-cost-signed bound (imposing temporary artificial bounds on
	// dual-infeasible free directions — the dual phase 1), then the
	// bound-flipping dual ratio test with exact dual steepest-edge row
	// weights until primal feasibility, and a final primal pass that
	// certifies optimality. Every uncertifiable exit falls back to the
	// primal algorithm, so the selection never changes an answer.
	AlgorithmDual
)

func (a Algorithm) String() string {
	switch a {
	case AlgorithmAuto:
		return "auto"
	case AlgorithmPrimal:
		return "primal"
	case AlgorithmDual:
		return "dual"
	}
	return "?"
}

// PresolveMode gates the LP presolve layer (presolve.go).
type PresolveMode int

const (
	// PresolveAuto (the zero value) applies presolve where it is transparent:
	// a cold solve without a basis-snapshot request reduces the model, solves
	// the reduction and postsolves the answer. Warm-started and snapshot
	// solves skip it, because a basis snapshot must match the caller's
	// problem shape. The MILP layer (package ilp) instead presolves once in
	// front of the root LP and searches the reduced space directly.
	PresolveAuto PresolveMode = iota
	// PresolveOff solves the model exactly as stated — the differential-
	// testing reference for the presolve layer.
	PresolveOff
)

func (pm PresolveMode) String() string {
	switch pm {
	case PresolveAuto:
		return "auto"
	case PresolveOff:
		return "off"
	}
	return "?"
}

// Result holds the outcome of a Solve.
type Result struct {
	Status Status
	Obj    float64 // objective value (valid when Status == Optimal)
	// X holds the primal values of the structural variables. The slice is
	// pooled on the solve engine: a later Solve of the same Problem (warm
	// reoptimization of the cached engine) overwrites it in place, so copy it
	// if it must outlive the next Solve call.
	X     []float64
	Iters int   // simplex iterations used (both phases)
	Stats Stats // detailed per-solve statistics
	// Duals holds the row dual values y (one per constraint, such that
	// c - A'y is the reduced-cost vector), populated on optimal solves when
	// Options.WantDuals is set. Solves routed through presolve recover the
	// duals of removed rows during postsolve. Like X, the slice may be pooled
	// on the solve engine; copy it if it must outlive the next Solve.
	Duals []float64
	// Basis is the final basis snapshot, populated on optimal solves when
	// Options.SnapshotBasis is set. It can seed a later warm-started solve
	// of the same problem shape via Options.WarmStart.
	Basis *Basis
}

// Basis is an opaque snapshot of a simplex basis: which column is basic in
// each row and where every nonbasic column rests. It is valid as a warm start
// for any problem with the same variables and constraints, regardless of
// bound changes — exactly the relationship between a branch-and-bound node
// and its children.
type Basis struct {
	n, m  int
	basis []int32
	state []varState
}

// Stats are per-solve simplex statistics, the LP layer's contribution to
// the solver observability stack (package obs).
type Stats struct {
	Iters            int  // total simplex iterations (both phases)
	Phase1Iters      int  // iterations spent driving artificials out
	Pivots           int  // basis exchanges performed
	BoundFlips       int  // nonbasic bound-to-bound moves (no basis change)
	Refactorizations int  // basis-inverse rebuilds (numerical recovery)
	DegeneratePivots int  // zero-step iterations (stalling indicator)
	WarmStarted      bool // solve reused a parent basis (no phase 1 ran)
	DualIters        int  // dual-simplex iterations restoring primal feasibility

	// Basis-factorization statistics.
	FactorNNZ int     // nonzeros of L+U at the last refactorization
	FillRatio float64 // FactorNNZ / basis-matrix nonzeros (fill-in factor)
	EtaPivots int     // basis exchanges absorbed by Forrest-Tomlin updates (no refactorization)
	FTRANNnz  int     // result nonzeros across all sparse FTRANs (deterministic work)
	BTRANNnz  int     // result nonzeros across all sparse BTRANs (deterministic work)

	// Refactorization attribution: why refactorizations beyond the initial
	// factorization fired. The four reasons partition the recovery paths of
	// the update layer; initial/structural factorizations carry no reason, so
	// the sum can be below Refactorizations.
	RefactorEtaLen         int // update-count budget exhausted ("eta_len")
	RefactorFill           int // update-storage fill budget exhausted ("fill")
	RefactorPivotQuality   int // tiny pivot hit mid-iteration ("pivot_quality")
	RefactorUpdateRejected int // FT update rejected on spike-pivot quality ("update_rejected")

	// Pricing-layer statistics (pricing.go).
	CandidateHits   int // pricing iterations served by the candidate list alone
	ReferenceResets int // devex reference-framework resets
	DualBoundFlips  int // long-step dual ratio-test bound flips (BFRT)

	// Presolve statistics (presolve.go; populated when the solve was routed
	// through the presolve layer).
	PresolveRows int // constraint rows removed by presolve
	PresolveCols int // variable columns removed by presolve

	// Phases attributes the solve's wall time to the simplex internals —
	// PhaseBuild, PhasePricing, PhaseRatioTest, PhasePivot, PhaseRefactorize
	// — and is populated only when Options.CollectPhases is set (the
	// per-iteration clock reads are not free on tiny LPs).
	Phases obs.Breakdown
}

// Simplex phase names used in Stats.Phases.
const (
	PhaseBuild       = "build"       // column/basis assembly before iterating
	PhasePricing     = "pricing"     // dual computation + entering-column scan
	PhaseRatioTest   = "ratio_test"  // bounded ratio test for the leaving row
	PhasePivot       = "pivot"       // step application + basis-representation update
	PhaseRefactorize = "refactorize" // basis-representation rebuilds and refreshes
	PhaseFTRAN       = "ftran"       // sparse forward solves (pivot-column transforms)
	PhaseBTRAN       = "btran"       // sparse backward solves (duals, tableau rows)
)

// Options tunes the simplex solver.
type Options struct {
	// MaxIters bounds total simplex iterations; 0 means a generous default
	// derived from the problem size.
	MaxIters int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-9.
	Tol float64
	// CollectPhases enables per-phase wall-time attribution (Stats.Phases).
	// It costs a few clock reads per iteration, so it is opt-in.
	CollectPhases bool
	// WarmStart, if non-nil, seeds the solve from a basis snapshot taken on
	// a previous solve of the same problem shape (same variable and row
	// counts). The snapshot basis is refactorized and primal feasibility is
	// restored by bounded dual-simplex pivots, skipping phase 1 entirely; a
	// stale, singular or non-converging basis silently falls back to the
	// cold two-phase solve, so a warm start never changes the answer.
	WarmStart *Basis
	// SnapshotBasis records the final basis of an optimal solve in
	// Result.Basis for use as a later WarmStart.
	SnapshotBasis bool
	// Presolve gates the LP presolve layer; the zero value (PresolveAuto)
	// presolves cold solves transparently, PresolveOff solves the model as
	// stated (the differential reference).
	Presolve PresolveMode
	// Algorithm selects the simplex variant for cold solves; the zero value
	// (AlgorithmAuto) is the two-phase primal. AlgorithmDual starts from an
	// all-slack dual-feasible basis and drives it primal feasible with the
	// bound-flipping dual ratio test before a final primal certification
	// pass. Warm-started solves ignore it (the warm path is already a dual
	// reoptimization).
	Algorithm Algorithm
	// WantDuals populates Result.Duals on optimal solves (one extra BTRAN).
	WantDuals bool
	// Ctx, if non-nil, is polled every ctxPollIters simplex iterations and
	// basis-factorization steps; once it is done the solve returns at once
	// with Stopped, on every path (warm, dual and primal). It carries the
	// MILP's time budget and cancellation into a long LP.
	Ctx context.Context
}

// ctxPollIters is the iteration (and elimination-step) interval at which
// Options.Ctx is polled.
const ctxPollIters = 64

func (o Options) withDefaults(m, n int) Options {
	if o.MaxIters == 0 {
		o.MaxIters = 200*(m+n) + 20000
	}
	if o.Tol == 0 {
		o.Tol = 1e-9
	}
	return o
}

// Solve optimizes the problem with the bounded-variable two-phase primal
// simplex method. With Options.WarmStart it first attempts a dual-simplex
// reoptimization from a previous basis — preferring the live engine cached on
// the problem (in-place reoptimization, no refactorization), then the
// snapshot in Options.WarmStart — falling back to the cold solve whenever the
// warm path cannot finish cleanly.
func (p *Problem) Solve(opt Options) Result {
	if opt.WarmStart != nil {
		if s := p.engine; s != nil && s.mutGen == p.mutGen {
			if res, done := s.reSolve(opt); done {
				return res
			}
		} else if res, done := warmSolve(p, opt); done {
			return res
		}
	}
	// Cold solves without a snapshot request route through the presolve
	// layer (transparent: the answer is postsolved back to this problem's
	// shape). Snapshot solves skip it — Result.Basis must match the full
	// problem so a later WarmStart can load it.
	if opt.Presolve == PresolveAuto && !opt.SnapshotBasis {
		if res, done := presolvedSolve(p, opt); done {
			return res
		}
	}
	if opt.Algorithm == AlgorithmDual {
		// Primary dual simplex; any exit it cannot certify against the
		// original bounds falls through to the primal algorithm below.
		if res, s, done := dualSolve(p, opt); done {
			if opt.SnapshotBasis && res.Status == Optimal {
				p.engine = s
			}
			return res
		}
	}
	s := newSimplex(p, opt)
	res := s.solve()
	if opt.SnapshotBasis && res.Status == Optimal {
		p.engine = s
	}
	return res
}
