// Package core implements OptRouter: cost-optimal, design-rule-correct
// switchbox detailed routing, reproducing the DAC 2015 paper "Evaluation of
// BEOL Design Rule Impacts Using An Optimal ILP-based Detailed Router".
//
// Two provably optimal solvers are provided:
//
//   - SolveILP emits the paper's multi-commodity-flow integer linear program
//     (constraints (1)-(12)) onto the pure-Go MILP engine in package ilp,
//     replacing the paper's CPLEX.
//   - SolveBnB is a conflict-driven combinatorial branch-and-bound that
//     computes per-net minimum Steiner arborescences for admissible lower
//     bounds and branches on (net, arc) forbiddances named by realized
//     conflicts. It reaches the same optima much faster and powers the large
//     experiment sweeps.
//
// A fast heuristic router (SolveHeuristic) stands in for the commercial
// router in the paper's validation study.
package core

import (
	"fmt"
	"time"

	"optrouter/internal/ilp"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
)

// Solution is a routing result for one clip under one rule configuration.
type Solution struct {
	// Feasible is false when the instance is proven unroutable.
	Feasible bool
	// Proven is true when the result carries an optimality (or
	// infeasibility) proof; heuristic results leave it false.
	Proven bool

	// Cost is the routing cost: wirelength + 4 x #vias by default
	// (configured through rgraph arc costs).
	Cost int
	// Wirelength counts used wire arcs (track steps).
	Wirelength int
	// Vias counts used via sites.
	Vias int

	// NetArcs[k] lists the directed arc ids used by net k.
	NetArcs [][]int32

	Runtime time.Duration

	// Solver statistics (meaning depends on the solver).
	Nodes   int // branch-and-bound nodes
	LPIters int // simplex iterations (ILP solver only)

	// Stats carries the full per-solve telemetry (see SolveStats); always
	// populated by the exact solvers, partially by the heuristic.
	Stats SolveStats
}

// BoundSample is one point of a solve's convergence trace: the proven lower
// bound and best incumbent cost at a moment of the search. Samples are taken
// at the root, at every incumbent update and at termination (capped at 1024
// per solve) and dump as JSONL through report.JSONLWriter.
type BoundSample struct {
	ElapsedMS float64 `json:"elapsed_ms"` // since the start of the solve
	Nodes     int     `json:"nodes"`      // nodes explored at the sample
	Depth     int     `json:"depth"`      // depth of the node being processed
	Open      int     `json:"open"`       // open nodes at the sample
	Bound     int64   `json:"bound"`      // proven lower bound (-1 before root)
	Incumbent int64   `json:"incumbent"`  // best feasible cost (-1 if none)
}

// SolveStats is the per-solve telemetry shared by both exact solvers.
// Fields not applicable to a solver are left zero (e.g. LPSolves for the
// combinatorial BnB, SteinerSolves for the MILP path).
type SolveStats struct {
	Nodes      int // search nodes explored
	MaxDepth   int // deepest search node processed
	Incumbents int // incumbent updates (including the heuristic seed)

	// CDC-BnB specific.
	BansGenerated    int           // (net, arc) forbiddances pushed to children
	SteinerSolves    int           // exact Steiner lower-bound computations
	SteinerCells     int64         // finite Steiner DP cells visited (deterministic work)
	SteinerCacheHits int           // per-net route cache hits avoided recomputation
	SteinerInherited int           // per-net routes inherited from the parent's (no cache lookup, no solve)
	DRCChecks        int           // design-rule evaluations of candidate routings
	DRCTime          time.Duration // wall time inside the DRC
	Dives            int           // primal dive-repair attempts
	// LagrangianRounds is deprecated and always 0: CDC-BnB no longer has a
	// Lagrangian bound. Its only reader is perfbench, which keeps reporting
	// it; the next change to the benchmark removes it.
	LagrangianRounds int

	// MILP path specific: the LP subsolver's effort (zero for CDC-BnB).
	ilp.LPStats

	// Model dimensions of the MILP path's LP relaxation (zero for the
	// combinatorial BnB): constraint rows, variable columns, and structural
	// matrix nonzeros. Benchmarks report these so speedups can be correlated
	// with LP size.
	ModelRows int
	ModelCols int
	ModelNNZ  int

	// Parallel-search telemetry.
	Par int // BnBOptions.Par of the CDC-BnB (0 = width-1 serial rounds)
	// NodesPerWorker[w] counts nodes expanded by worker w of a parallel
	// search (nil when Par is 0). The split is scheduling-dependent (not
	// deterministic across runs); the sum equals Nodes.
	NodesPerWorker []int

	Elapsed time.Duration // total wall time of the solve
	// Termination says why the solve stopped: "optimal", "infeasible",
	// "floor" (proven optimal: the incumbent met BnBOptions.Floor),
	// "time-limit", "node-limit", "cancelled", or an LP failure reason.
	// exp's rule sweep sets "implied" on a cell it decides by rule dominance
	// without a search.
	Termination string

	// Phases attributes the solve's wall time to solver-internal phases.
	// CDC-BnB: seed, setup, steiner, drc, dive, branch, search.
	// MILP: setup, presolve, root_lp, node_lp, heuristic, branch, search.
	// The phases partition the solve, so Phases.Total() ~= Elapsed.
	Phases obs.Breakdown
	// LPPhases is the aggregated simplex-internal breakdown (pricing, ratio
	// test, pivot, refactorize) of the MILP path; empty unless the solve ran
	// with lp.Options.CollectPhases.
	LPPhases obs.Breakdown
	// BoundTrace is the incumbent/bound convergence trace of the search.
	BoundTrace []BoundSample
}

// maxTraceSamples caps BoundTrace per solve (the last entry is always the
// terminal state).
const maxTraceSamples = 1024

// msSince returns the time since t in fractional milliseconds, the unit of
// BoundSample.ElapsedMS.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000.0
}

// summarize fills cost/wirelength/via counters from NetArcs.
func summarize(g *rgraph.Graph, sol *Solution) {
	sol.Cost = 0
	sol.Wirelength = 0
	usedSites := map[int32]bool{}
	for _, arcs := range sol.NetArcs {
		for _, aid := range arcs {
			a := g.Arcs[aid]
			sol.Cost += int(a.Cost)
			switch a.Kind {
			case rgraph.Wire:
				sol.Wirelength++
			case rgraph.Via, rgraph.ViaShapeIn, rgraph.ViaShapeOut:
				if a.Site >= 0 {
					usedSites[a.Site] = true
				}
			}
		}
	}
	sol.Vias = len(usedSites)
}

// UsedSites returns the set of via sites occupied by the solution.
func (s *Solution) UsedSites(g *rgraph.Graph) map[int32]bool {
	used := map[int32]bool{}
	for _, arcs := range s.NetArcs {
		for _, aid := range arcs {
			if st := g.Arcs[aid].Site; st >= 0 {
				used[st] = true
			}
		}
	}
	return used
}

// String summarizes the solution.
func (s *Solution) String() string {
	if !s.Feasible {
		return "infeasible"
	}
	return fmt.Sprintf("cost=%d wl=%d vias=%d (%.0fms)", s.Cost, s.Wirelength, s.Vias,
		float64(s.Runtime)/float64(time.Millisecond))
}
