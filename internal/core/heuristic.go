package core

import (
	"sort"
	"time"

	"optrouter/internal/drc"
	"optrouter/internal/rgraph"
)

// HeuristicOptions configures the negotiated-congestion heuristic router.
type HeuristicOptions struct {
	// Arena, if non-nil, supplies the Steiner kernel's reusable storage
	// (SolveBnB shares its arena with the seeding heuristic). Nil allocates
	// a private arena.
	Arena *SteinerArena
}

// The heuristic's negotiation schedule. The present-congestion penalty
// starts at presentPenalty and grows by 20 per pass; every conflicted
// resource's history cost grows by historyStep per pass. All penalties are
// nonnegative, which the Steiner kernel's bucket queue and full-mask early
// exit require.
const (
	maxHeuristicIters = 48 // rip-up-and-reroute passes
	presentPenalty    = 50
	historyStep       = 4
)

// SolveHeuristic routes the clip with a PathFinder-style sequential router:
// per-net exact Steiner trees under growing congestion penalties, with
// design-rule violations (from the independent DRC) folded into history
// costs. It is this repository's stand-in for the commercial detailed router
// in the paper's validation study (Section 4.2, footnote 6).
//
// The result is DRC-clean when Feasible; optimality is NOT guaranteed
// (Proven is false), except that a proven-infeasible verdict (no per-net
// path exists at all) sets Proven. A net with more sinks than the Steiner
// kernel solves gives an unproven infeasible result.
func SolveHeuristic(g *rgraph.Graph, opt HeuristicOptions) *Solution {
	start := time.Now()
	if checkSinkLimit(g) != nil {
		return &Solution{Feasible: false, Proven: false, Runtime: time.Since(start)}
	}
	own := newOwnership(g)
	nNets := len(g.Clip.Nets)

	arena := opt.Arena
	if arena == nil {
		arena = NewSteinerArena()
	}
	ctxs := make([]*steinerCtx, nNets)
	for k := 0; k < nNets; k++ {
		ctxs[k] = newSteinerCtx(g, own, k, arena)
	}

	// Unconstrained feasibility probe: if some net cannot route alone, the
	// clip is infeasible for every solver. Solver results are arena-owned and
	// routes persist across solves, so each is copied on store.
	routes := make([][]int32, nNets)
	for k := 0; k < nNets; k++ {
		arcs, _, ok := steinerTree(ctxs[k])
		if !ok {
			return &Solution{Feasible: false, Proven: true, Runtime: time.Since(start)}
		}
		routes[k] = append([]int32(nil), arcs...)
	}

	history := make([]int64, len(g.Arcs))
	penalty := make([]int64, len(g.Arcs))

	// Net ordering: larger nets first (harder to detour late).
	order := make([]int, nNets)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Clip.Nets[order[a]].NumSinks() > g.Clip.Nets[order[b]].NumSinks()
	})

	ck := drc.NewChecker(g)
	for iter := 0; iter < maxHeuristicIters; iter++ {
		viols := ck.Check(routes)
		if len(viols) == 0 {
			sol := &Solution{Feasible: true, NetArcs: routes, Runtime: time.Since(start)}
			summarize(g, sol)
			return sol
		}
		// Raise history on conflicted resources.
		for _, v := range viols {
			for _, a := range violationArcs(g, v) {
				history[a] += historyStep
				history[g.Pair[a]] += historyStep
			}
		}
		present := presentPenalty + int64(iter)*20

		// Re-route each net against the rest.
		for _, k := range order {
			// Present congestion from other nets: arcs, their pairs, and
			// arcs entering vertices other nets touch.
			for i := range penalty {
				penalty[i] = history[i]
			}
			for k2 := 0; k2 < nNets; k2++ {
				if k2 == k {
					continue
				}
				for _, a := range routes[k2] {
					penalty[a] += present
					penalty[g.Pair[a]] += present
					arc := g.Arcs[a]
					for _, v := range []int32{arc.From, arc.To} {
						if !g.IsGrid(v) {
							continue
						}
						for _, in := range g.In[v] {
							penalty[in] += present / 2
						}
					}
					// Via adjacency pressure.
					if s := arc.Site; s >= 0 {
						for _, o := range g.SiteAdj[s] {
							for _, oa := range g.Sites[o].Arcs {
								penalty[oa] += present
							}
						}
					}
				}
			}
			ctxs[k].penalty = penalty
			arcs, _, ok := steinerTree(ctxs[k])
			ctxs[k].penalty = nil
			if ok {
				routes[k] = append(routes[k][:0], arcs...)
			}
		}
	}

	// One final check: the last pass may have converged.
	if len(ck.Check(routes)) == 0 {
		sol := &Solution{Feasible: true, NetArcs: routes, Runtime: time.Since(start)}
		summarize(g, sol)
		return sol
	}
	return &Solution{Feasible: false, Proven: false, Runtime: time.Since(start)}
}

// violationArcs maps a violation to the arcs whose cost should rise.
func violationArcs(g *rgraph.Graph, v drc.Violation) []int32 {
	var out []int32
	out = append(out, v.Arcs...)
	for _, vert := range v.Verts {
		if int(vert) < len(g.In) {
			out = append(out, g.In[vert]...)
		}
	}
	for _, s := range v.Sites {
		out = append(out, g.Sites[s].Arcs...)
	}
	for _, e := range v.EOLs {
		if e.WitnessVia >= 0 {
			out = append(out, e.WitnessVia)
		}
		if e.WitnessWire >= 0 {
			out = append(out, e.WitnessWire)
		}
	}
	return out
}
