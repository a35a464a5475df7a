package core

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"time"

	"optrouter/internal/drc"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
	"optrouter/internal/xchg"
)

// BnBOptions tunes the conflict-driven combinatorial branch-and-bound.
type BnBOptions struct {
	// MaxNodes bounds explored nodes (default 200000).
	MaxNodes int
	// TimeLimit stops the search (0 = none).
	TimeLimit time.Duration
	// Ctx, if non-nil, cancels the search between nodes (termination
	// "cancelled", proven false). It is the parallel scheduler's handle for
	// aborting a sweep; TimeLimit remains the per-solve wall budget.
	Ctx context.Context
	// NoHeuristicSeed disables the initial heuristic incumbent (used by
	// tests that want the pure search).
	NoHeuristicSeed bool
	// Progress, if non-nil, is invoked every ProgressEvery explored nodes
	// and on every incumbent update with a live view of the search.
	Progress func(BnBProgress)
	// ProgressEvery is the node interval between Progress calls (default 256).
	ProgressEvery int
	// Tracer, if non-nil, receives a span for the solve with incumbent and
	// termination events (see package obs). Nil disables tracing.
	Tracer *obs.Tracer
	// Flight configures per-node search-event recording onto the solve span
	// (see obs.FlightOptions). Disabled by default; it needs a Tracer to have
	// anywhere to record to.
	Flight obs.FlightOptions
	// Arena, if non-nil, supplies the Steiner kernel's reusable storage.
	// Sharing one arena across sequential solves on related graphs (the
	// eleven rule configurations of a clip in a sweep) amortizes the solver's
	// working set; nil allocates a private arena. Arenas are not safe for
	// concurrent use, so the parallel tree search (Par > 0) ignores this and
	// allocates one private arena per worker.
	Arena *SteinerArena

	// Par > 0 routes the solve through the deterministic round-parallel tree
	// search with Par workers (see parbnb.go): open nodes are distributed
	// over an internal/sched pool in fixed-width rounds whose results fold
	// back serially, so the answer — objective, proof status and the routes
	// themselves — is identical for every Par value, including Par=1.
	// 0 keeps the classic serial best-first engine.
	Par int
	// Seed salts the parallel engine's deterministic node tie-break key.
	// Two solves with the same Seed explore identically for any Par; changing
	// the Seed permutes tie-broken siblings (a diversification knob).
	Seed int64
	// Exchange, if non-nil, connects the solve to a portfolio race (see
	// SolvePortfolio): foreign incumbents tighten the pruning cutoff, local
	// incumbents and bounds are published, and the solve terminates early
	// when the race is decided. With an Exchange attached, Proven=true means
	// the joint search completed — the returned solution is optimal only if
	// its cost equals the exchange incumbent (SolvePortfolio composes this).
	Exchange *xchg.Exchange
}

func (o BnBOptions) withDefaults() BnBOptions {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.ProgressEvery == 0 {
		o.ProgressEvery = 256
	}
	return o
}

// BnBProgress is the live view handed to BnBOptions.Progress.
type BnBProgress struct {
	Nodes     int           // nodes explored so far
	Open      int           // nodes still in the priority queue
	Incumbent int64         // best routing cost found (-1 if none yet)
	Bound     int64         // proven global lower bound (-1 before root)
	Elapsed   time.Duration // since the start of the solve
}

// CDC-BnB phase names used in SolveStats.Phases. Together they partition a
// solve's wall time: the attribution clock is always open on exactly one of
// them from the start of SolveBnB until it returns.
const (
	PhaseSetup      = "setup"      // per-net Steiner context construction
	PhaseSeed       = "seed"       // initial heuristic incumbent
	PhaseSteiner    = "steiner"    // per-net Steiner lower-bound solves
	PhaseDRC        = "drc"        // design-rule separation (EOL/via checks)
	PhaseLagrangian = "lagrangian" // dual-bound strengthening rounds
	PhaseDive       = "dive"       // primal dive-repair heuristic
	PhaseBranch     = "branch"     // strong-branching lookahead + child push
	PhaseSearch     = "search"     // node pop, pruning, bookkeeping
)

// banKey identifies one (net, arc) forbiddance.
type banKey struct {
	net int32
	arc int32
}

// splitmix64 is the finalizing mix of the SplitMix64 generator — cheap, and
// enough avalanche that summing mixed values fingerprints a set well.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// banFingerprint hashes the subset of bans belonging to net k without
// materializing a key: the per-arc mixes are combined by addition, so the
// fingerprint is independent of Go's randomized map iteration order. Returns
// the hash and the subset size.
func banFingerprint(k int, bans map[banKey]bool) (uint64, int) {
	h := uint64(0)
	cnt := 0
	for b := range bans {
		if int(b.net) == k {
			h += splitmix64(uint64(uint32(b.arc)) + 1)
			cnt++
		}
	}
	return h, cnt
}

// bnbNode is a search node: its bans are the chain to the root.
type bnbNode struct {
	parent *bnbNode
	bans   []banKey // bans added at this node
	lb     int64    // lower bound computed at creation (parent-estimate)
	depth  int
}

// cachedRoute is one per-net route memo entry of SolveBnB's route cache.
type cachedRoute struct {
	ids  []int32 // the net's banned arc ids (set-equality verification)
	arcs []int32
	cost int64
	ok   bool
}

// lookupRoute scans the same-fingerprint cache entries for one whose ban-id
// set equals net k's subset of bans (known to have size cnt). Entries are
// verified by size and membership rather than trusted on hash equality, so a
// fingerprint collision degrades to a cache miss, never a wrong route (see
// TestRouteCacheCollisionSafety).
func lookupRoute(entries []cachedRoute, k, cnt int, bans map[banKey]bool) *cachedRoute {
	for i := range entries {
		e := &entries[i]
		if len(e.ids) != cnt {
			continue
		}
		match := true
		for _, id := range e.ids {
			if !bans[banKey{net: int32(k), arc: id}] {
				match = false
				break
			}
		}
		if match {
			return e
		}
	}
	return nil
}

func (n *bnbNode) allBans(buf map[banKey]bool) map[banKey]bool {
	if buf == nil {
		buf = map[banKey]bool{}
	} else {
		for k := range buf {
			delete(buf, k)
		}
	}
	for cur := n; cur != nil; cur = cur.parent {
		for _, b := range cur.bans {
			buf[b] = true
		}
	}
	return buf
}

// nodePQ is a min-heap on lower bound (ties: deeper first to reach leaves).
type nodePQ []*bnbNode

func (p nodePQ) Len() int { return len(p) }
func (p nodePQ) Less(i, j int) bool {
	if p[i].lb != p[j].lb {
		return p[i].lb < p[j].lb
	}
	return p[i].depth > p[j].depth
}
func (p nodePQ) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *nodePQ) Push(x interface{}) { *p = append(*p, x.(*bnbNode)) }
func (p *nodePQ) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// SolveBnB computes a provably optimal routing with the conflict-driven
// combinatorial branch-and-bound (CDC-BnB): per-net exact minimum Steiner
// arborescences provide admissible lower bounds; when the union of per-net
// optima violates a design rule, children are generated by forbidding, for
// one involved net, one arc of the realized conflict — a cover of all
// feasible solutions, so optimality is preserved (see DESIGN.md).
func SolveBnB(g *rgraph.Graph, opt BnBOptions) (*Solution, error) {
	if opt.Par > 0 {
		return solveParBnB(g, opt)
	}
	start := time.Now()
	opt = opt.withDefaults()
	ex := opt.Exchange
	own := newOwnership(g)
	nNets := len(g.Clip.Nets)
	arena := opt.Arena
	if arena == nil {
		arena = NewSteinerArena()
	}
	arena.resetBans() // recycle ban vectors from a previous solve on this arena

	var stats SolveStats
	gst := g.Stats()
	span := opt.Tracer.Start("bnb.solve",
		obs.A("clip", g.Clip.Name),
		obs.A("nets", nNets),
		obs.A("verts", gst.Verts),
		obs.A("arcs", gst.Arcs))

	// Wall-time attribution: the clock is open on exactly one phase from here
	// until the solve returns, so stats.Phases partitions the elapsed time.
	clock := obs.NewPhaseClock()
	clock.Enter(PhaseSeed)

	var best *Solution
	var bestCost int64 = 1 << 60
	if !opt.NoHeuristicSeed {
		hspan := span.Child("heuristic.seed")
		h := SolveHeuristic(g, HeuristicOptions{Arena: arena})
		hspan.SetAttr("feasible", h.Feasible)
		hspan.End()
		if h.Feasible {
			best = h
			bestCost = int64(h.Cost)
			if ex.OfferIncumbent(bestCost) {
				stats.IncumbentExchanges++
			}
			stats.Incumbents++
			stats.BoundTrace = append(stats.BoundTrace, BoundSample{
				ElapsedMS: msSince(start), Bound: -1, Incumbent: bestCost,
			})
			span.Event("incumbent", obs.A("cost", h.Cost), obs.A("source", "heuristic-seed"))
		} else if h.Proven {
			h.Runtime = time.Since(start)
			stats.Elapsed = h.Runtime
			stats.Termination = "infeasible"
			clock.Stop()
			stats.Phases = clock.Breakdown()
			stats.BoundTrace = append(stats.BoundTrace, BoundSample{
				ElapsedMS: msSince(start), Bound: -1, Incumbent: -1,
			})
			h.Stats = stats
			span.SetAttr("termination", "infeasible")
			span.SetAttr("phases_ms", stats.Phases.MS())
			span.End()
			return h, nil // proven infeasible by the probe
		}
	}

	clock.Enter(PhaseSetup)
	ctxs := make([]*steinerCtx, nNets)
	baseBans := make([][]bool, nNets)
	for k := 0; k < nNets; k++ {
		ctxs[k] = newSteinerCtx(g, own, k, arena)
		baseBans[k] = append([]bool(nil), ctxs[k].banned...)
	}

	// Per-net route memoization: most branches ban arcs for a single net,
	// so sibling nodes share nearly all per-net Steiner solutions. Entries
	// are keyed by an order-independent fingerprint of the net's ban set —
	// probing allocates nothing — with same-hash entries verified by
	// lookupRoute, so a collision degrades to a miss, never a wrong route.
	caches := make([]map[uint64][]cachedRoute, nNets)
	for k := range caches {
		caches[k] = map[uint64][]cachedRoute{}
	}

	// checkDRC wraps the rule checker with count/time accounting. Swap/Enter
	// re-attributes the nested region to the DRC phase no matter which phase
	// (search, dive, branch) drove the check.
	checkDRC := func(routes [][]int32) []drc.Violation {
		prev := clock.Swap(PhaseDRC)
		t0 := time.Now()
		viols := drc.Check(g, routes)
		stats.DRCChecks++
		stats.DRCTime += time.Since(t0)
		clock.Enter(prev)
		return viols
	}

	// evaluate solves all per-net Steiner problems under the node's bans.
	evaluate := func(bans map[banKey]bool) (routes [][]int32, lb int64, feasible bool) {
		prev := clock.Swap(PhaseSteiner)
		defer func() { clock.Enter(prev) }()
		routes = make([][]int32, nNets)
		for k := 0; k < nNets; k++ {
			h, cnt := banFingerprint(k, bans)
			cr := lookupRoute(caches[k][h], k, cnt, bans)
			if cr != nil {
				stats.SteinerCacheHits++
			} else {
				copy(ctxs[k].banned, baseBans[k])
				ids := make([]int32, 0, cnt)
				for b := range bans {
					if int(b.net) == k {
						ctxs[k].banned[b.arc] = true
						ids = append(ids, b.arc)
					}
				}
				arcs, cost, ok := steinerTree(ctxs[k])
				// The solver's arc buffer is arena-owned; the cache outlives
				// the next solve, so it keeps a copy.
				ent := cachedRoute{ids: ids, cost: cost, ok: ok}
				if ok {
					ent.arcs = append([]int32(nil), arcs...)
				}
				caches[k][h] = append(caches[k][h], ent)
				cr = &caches[k][h][len(caches[k][h])-1]
			}
			if !cr.ok {
				return nil, 0, false
			}
			routes[k] = cr.arcs
			lb += cr.cost
		}
		return routes, lb, true
	}

	// diveRepair greedily resolves violations from a node's routes by
	// applying, at each conflict, the child ban whose re-route is cheapest.
	// It is a primal heuristic only — bans explored here are not removed
	// from the tree — but it supplies early incumbents that best-first
	// search needs for pruning, especially under SADP rules where the
	// standalone heuristic router often fails.
	// trialAdded is the rollback journal for speculative ban applications:
	// child evaluations mutate the live ban map in place and undo afterwards
	// instead of copying the whole map per trial.
	var trialAdded []banKey
	tryBans := func(bans map[banKey]bool, childBans []banKey) (int64, bool) {
		trialAdded = trialAdded[:0]
		for _, b := range childBans {
			if !bans[b] {
				bans[b] = true
				trialAdded = append(trialAdded, b)
			}
		}
		_, c, ok := evaluate(bans)
		for _, b := range trialAdded {
			delete(bans, b)
		}
		return c, ok
	}

	diveRepair := func(bans map[banKey]bool, cutoff int64) (int64, [][]int32) {
		local := map[banKey]bool{}
		for k, v := range bans {
			local[k] = v
		}
		for step := 0; step < 24; step++ {
			routes, cost, feasible := evaluate(local)
			if !feasible || cost >= cutoff {
				return -1, nil // infeasible or already dominated
			}
			viols := checkDRC(routes)
			if len(viols) == 0 {
				return cost, routes
			}
			v := pickViolation(viols)
			bestCost := int64(-1)
			var bestBans []banKey
			for _, childBans := range branchBans(g, v, routes) {
				if len(childBans) == 0 {
					continue
				}
				c, ok := tryBans(local, childBans)
				if !ok {
					continue
				}
				if bestCost < 0 || c < bestCost {
					bestCost = c
					bestBans = childBans
				}
			}
			if bestBans == nil {
				return -1, nil
			}
			for _, b := range bestBans {
				local[b] = true
			}
		}
		return -1, nil
	}

	// applyBans loads a node's forbiddances into every net context (used by
	// the Lagrangian bound, which cannot go through the route cache).
	applyBans := func(bans map[banKey]bool) {
		for k := 0; k < nNets; k++ {
			copy(ctxs[k].banned, baseBans[k])
		}
		for b := range bans {
			ctxs[b.net].banned[b.arc] = true
		}
	}
	lag := newLagrangian(g)

	root := &bnbNode{}
	pq := &nodePQ{root}
	heap.Init(pq)
	nodes := 0
	sinceProgress := 0 // nodes since the last incumbent improvement or prune
	banBuf := map[banKey]bool{}
	proven := true
	curBound := int64(-1) // global lower bound (lb of last popped node)
	curDepth := 0         // depth of the node being processed

	// nodeEvent feeds the flight recorder one structured record per search
	// node: the action taken (cutoff / infeasible / dominated / solved /
	// lagrangian / fathom / branch), the node's position (n, d), its lower
	// bound and the global bound/incumbent state at that moment. Every attr
	// is integral, so records marshal unconditionally. With recording off
	// (the default) fl is nil and each call costs one comparison.
	fl := obs.NewFlight(span, opt.Flight)
	nodeEvent := func(act string, depth int, lb int64, extra ...obs.Attr) {
		if fl == nil {
			return
		}
		attrs := make([]obs.Attr, 0, 6+len(extra))
		attrs = append(attrs,
			obs.A("act", act), obs.A("n", nodes), obs.A("d", depth), obs.A("lb", lb))
		if curBound >= 0 {
			attrs = append(attrs, obs.A("bnd", curBound))
		}
		if best != nil {
			attrs = append(attrs, obs.A("inc", bestCost))
		}
		fl.Event("node", append(attrs, extra...)...)
	}

	sample := func() {
		if len(stats.BoundTrace) >= maxTraceSamples {
			return
		}
		inc := int64(-1)
		if best != nil {
			inc = bestCost
		}
		stats.BoundTrace = append(stats.BoundTrace, BoundSample{
			ElapsedMS: msSince(start), Nodes: nodes, Depth: curDepth,
			Open: pq.Len(), Bound: curBound, Incumbent: inc,
		})
	}

	reportProgress := func() {
		if opt.Progress == nil {
			return
		}
		inc := int64(-1)
		if best != nil {
			inc = bestCost
		}
		opt.Progress(BnBProgress{
			Nodes: nodes, Open: pq.Len(), Incumbent: inc,
			Bound: curBound, Elapsed: time.Since(start),
		})
	}

	clock.Enter(PhaseSearch)
	for pq.Len() > 0 {
		if nodes >= opt.MaxNodes {
			proven = false
			stats.Termination = "node-limit"
			break
		}
		if opt.TimeLimit > 0 && time.Since(start) > opt.TimeLimit {
			proven = false
			stats.Termination = "time-limit"
			break
		}
		if opt.Ctx != nil && opt.Ctx.Err() != nil {
			proven = false
			stats.Termination = "cancelled"
			break
		}
		if ex.Decided() {
			// The portfolio race is settled: the exchange bound reached the
			// exchange incumbent, so that incumbent is jointly proven optimal.
			// This solve's own result is the optimum only if it holds it.
			inc, _ := ex.Incumbent()
			proven = best != nil && bestCost == inc
			stats.Termination = "decided"
			break
		}
		// Effective pruning cutoff: the local incumbent, tightened by any
		// foreign incumbent published on the portfolio exchange. Pruning
		// against a foreign incumbent keeps the search exact: a completed
		// search then proves no solution cheaper than the exchange incumbent
		// exists, which is exactly the proof SolvePortfolio composes.
		cut := bestCost
		if f, ok := ex.Incumbent(); ok && f < cut {
			cut = f
		}
		nd := heap.Pop(pq).(*bnbNode)
		if nd.lb >= cut {
			// Best-first: every remaining node is at least as bad.
			nodeEvent("cutoff", nd.depth, nd.lb)
			break
		}
		nodes++
		curDepth = nd.depth
		if nd.depth > stats.MaxDepth {
			stats.MaxDepth = nd.depth
		}
		if nd.lb > curBound {
			curBound = nd.lb
			// Publish the global lower bound: explored and pruned subtrees
			// prove no solution below min(pq-min, cutoff) exists.
			if b := min(curBound, cut); b > 0 {
				ex.OfferBound(b)
			}
			// Leave headroom so incumbent/termination samples still fit when
			// bound improvements alone would exhaust the trace cap.
			if len(stats.BoundTrace) < maxTraceSamples-64 {
				sample()
			}
		}
		if nodes%opt.ProgressEvery == 0 {
			reportProgress()
		}
		banBuf = nd.allBans(banBuf)
		routes, lb, feasible := evaluate(banBuf)
		if !feasible {
			nodeEvent("infeasible", nd.depth, nd.lb)
			continue
		}
		if lb >= cut {
			nodeEvent("dominated", nd.depth, lb)
			continue
		}

		viols := checkDRC(routes)
		if len(viols) == 0 {
			// The per-net optima are jointly legal: node solved exactly.
			if lb < bestCost {
				bestCost = lb
				best = &Solution{Feasible: true, NetArcs: routes, Proven: true}
				summarize(g, best)
				sinceProgress = 0
				if ex.OfferIncumbent(bestCost) {
					stats.IncumbentExchanges++
				}
				stats.Incumbents++
				sample()
				span.Event("incumbent", obs.A("cost", best.Cost), obs.A("node", nodes))
				reportProgress()
			}
			nodeEvent("solved", nd.depth, lb)
			continue
		}

		// Lagrangian strengthening: dualized capacity penalties often close
		// the gap between the independent bound and the incumbent, pruning
		// without branching. It costs one uncached Steiner pass per net per
		// round, so it only runs once the plain search stalls.
		sinceProgress++
		if (best != nil || cut < bestCost) && lb < cut && sinceProgress > 24 {
			clock.Enter(PhaseLagrangian)
			applyBans(banBuf)
			stats.LagrangianRounds++
			lagLB := lag.bound(ctxs, 2)
			clock.Enter(PhaseSearch)
			if lagLB == -2 || lagLB >= cut {
				sinceProgress = 0
				nodeEvent("lagrangian", nd.depth, lb, obs.A("lag_lb", lagLB))
				continue
			}
		}

		// Periodic primal dive for incumbents (always at the root, then
		// sparsely — each dive costs many Steiner solves).
		if nodes == 1 || nodes%512 == 0 {
			clock.Enter(PhaseDive)
			stats.Dives++
			if c, r := diveRepair(banBuf, cut); c >= 0 && c < bestCost {
				bestCost = c
				best = &Solution{Feasible: true, NetArcs: r}
				summarize(g, best)
				if ex.OfferIncumbent(bestCost) {
					stats.IncumbentExchanges++
				}
				stats.Incumbents++
				sample()
				span.Event("incumbent", obs.A("cost", best.Cost), obs.A("node", nodes), obs.A("source", "dive"))
				reportProgress()
			}
			clock.Enter(PhaseSearch)
		}

		// Strong branching: among the highest-ranked violations, pick the
		// one whose worst (minimum-bound) feasible child is largest — it
		// tightens the subtree the most. Children evaluations are cached,
		// so the lookahead is amortized when a child is later popped.
		clock.Enter(PhaseBranch)
		cands := candidateViolations(viols, 3)
		type childEval struct {
			bans []banKey
			lb   int64
			ok   bool
		}
		bestScore := int64(-1)
		var bestChildren []childEval
		var bestKind string // violation kind branched on (flight-recorder attr)
		for _, v := range cands {
			sets := branchBans(g, v, routes)
			evals := make([]childEval, 0, len(sets))
			minLB := int64(1) << 60
			anyFeasible := false
			for _, childBans := range sets {
				child := childEval{bans: childBans}
				if clb, ok := tryBans(banBuf, childBans); ok && clb < cut {
					child.lb = clb
					child.ok = true
					anyFeasible = true
					if clb < minLB {
						minLB = clb
					}
				}
				evals = append(evals, child)
			}
			if !anyFeasible {
				// Every child of this violation is infeasible or dominated:
				// the node itself is settled.
				bestChildren = nil
				bestScore = 1 << 60
				bestKind = v.Kind.String()
				break
			}
			if minLB > bestScore {
				bestScore = minLB
				bestChildren = evals
				bestKind = v.Kind.String()
			}
		}
		pushed := 0
		for _, ce := range bestChildren {
			if !ce.ok {
				continue
			}
			stats.BansGenerated += len(ce.bans)
			heap.Push(pq, &bnbNode{parent: nd, bans: ce.bans, lb: ce.lb, depth: nd.depth + 1})
			pushed++
		}
		if pushed == 0 {
			nodeEvent("fathom", nd.depth, lb, obs.A("kind", bestKind))
		} else {
			nodeEvent("branch", nd.depth, lb, obs.A("kind", bestKind), obs.A("kids", pushed))
		}
		clock.Enter(PhaseSearch)
	}

	sol := best
	if sol == nil {
		sol = &Solution{Feasible: false}
	}
	// A completed search proves optimality of whatever incumbent remains,
	// including a heuristic-seeded one that was never improved.
	sol.Proven = proven
	sol.Nodes = nodes
	sol.Runtime = time.Since(start)

	stats.Nodes = nodes
	for k := 0; k < nNets; k++ {
		stats.SteinerSolves += ctxs[k].solves
		stats.SteinerCells += ctxs[k].cells
	}
	stats.Elapsed = sol.Runtime
	if stats.Termination == "" {
		if sol.Feasible {
			stats.Termination = "optimal"
		} else {
			stats.Termination = "infeasible"
		}
	}
	clock.Stop()
	stats.Phases = clock.Breakdown()
	// Terminal trace sample: overwrite the newest entry if the cap is hit so
	// the trace always ends with the final bound/incumbent state.
	if len(stats.BoundTrace) >= maxTraceSamples {
		stats.BoundTrace = stats.BoundTrace[:maxTraceSamples-1]
	}
	sample()
	sol.Stats = stats
	reportProgress()
	span.SetAttr("nodes", nodes)
	span.SetAttr("steiner_solves", stats.SteinerSolves)
	span.SetAttr("drc_checks", stats.DRCChecks)
	span.SetAttr("feasible", sol.Feasible)
	span.SetAttr("proven", sol.Proven)
	span.SetAttr("termination", stats.Termination)
	// The phase breakdown rides on the span so trace consumers (traceview)
	// can attribute solve wall time without access to SolveStats.
	span.SetAttr("phases_ms", stats.Phases.MS())
	fl.Finish()
	span.End()
	return sol, nil
}

func violationRank(v drc.Violation) int {
	switch v.Kind {
	case drc.ArcConflict:
		return 0
	case drc.VertexConflict:
		return 1
	case drc.ViaShapeBlock:
		return 2
	case drc.ViaAdjacency:
		return 3
	case drc.SADPEOL:
		return 4
	default:
		return 5
	}
}

// pickViolation selects a deterministic violation to branch on: prefer hard
// structural conflicts (arc/vertex) before rule conflicts, then lowest ids.
func pickViolation(viols []drc.Violation) drc.Violation {
	best := viols[0]
	for _, v := range viols[1:] {
		if violationRank(v) < violationRank(best) {
			best = v
		}
	}
	return best
}

// candidateViolations returns up to n violations in rank order for strong
// branching.
func candidateViolations(viols []drc.Violation, n int) []drc.Violation {
	sorted := append([]drc.Violation(nil), viols...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return violationRank(sorted[i]) < violationRank(sorted[j])
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// branchBans generates the children's forbiddance sets for a violation.
// Every feasible solution of the parent remains feasible in at least one
// child (the sets cover ¬violation), which keeps the search exact.
func branchBans(g *rgraph.Graph, v drc.Violation, routes [][]int32) [][]banKey {
	switch v.Kind {
	case drc.ArcConflict:
		a := v.Arcs[0]
		pair := g.Pair[a]
		k1, k2 := int32(v.Nets[0]), int32(v.Nets[1])
		return [][]banKey{
			{{k1, a}, {k1, pair}},
			{{k2, a}, {k2, pair}},
		}
	case drc.VertexConflict:
		k1, k2 := int32(v.Nets[0]), int32(v.Nets[1])
		if k1 == k2 && len(v.Arcs) == 2 {
			// Same-net double entry: a legal routing uses at most one of
			// the two entering arcs.
			return [][]banKey{
				{{k1, v.Arcs[0]}},
				{{k1, v.Arcs[1]}},
			}
		}
		vert := v.Verts[0]
		return [][]banKey{
			banVertex(g, k1, vert),
			banVertex(g, k2, vert),
		}
	case drc.ViaAdjacency:
		s1, s2 := v.Sites[0], v.Sites[1]
		return [][]banKey{
			banSiteForAll(g, s1, len(routes)),
			banSiteForAll(g, s2, len(routes)),
		}
	case drc.ViaShapeBlock:
		s := v.Sites[0]
		intruder := int32(v.Nets[len(v.Nets)-1])
		fv := v.Verts[0]
		siteArc := map[int32]bool{}
		for _, a := range g.Sites[s].Arcs {
			siteArc[a] = true
		}
		var intruderBan []banKey
		for _, a := range g.In[fv] {
			if !siteArc[a] {
				intruderBan = append(intruderBan, banKey{intruder, a}, banKey{intruder, g.Pair[a]})
			}
		}
		return [][]banKey{
			banSiteForAll(g, s, len(routes)),
			intruderBan,
		}
	case drc.SADPEOL:
		e1, e2 := v.EOLs[0], v.EOLs[1]
		return [][]banKey{
			{{int32(e1.Net), e1.WitnessWire}},
			{{int32(e1.Net), e1.WitnessVia}},
			{{int32(e2.Net), e2.WitnessWire}},
			{{int32(e2.Net), e2.WitnessVia}},
		}
	default:
		// Disconnected should be impossible for Steiner-built routes.
		panic(fmt.Sprintf("core: unexpected violation kind %v", v.Kind))
	}
}

func banVertex(g *rgraph.Graph, k int32, vert int32) []banKey {
	var out []banKey
	seen := map[int32]bool{}
	add := func(a int32) {
		if !seen[a] {
			seen[a] = true
			out = append(out, banKey{k, a})
		}
	}
	for _, a := range g.In[vert] {
		add(a)
		add(g.Pair[a])
	}
	for _, a := range g.Out[vert] {
		add(a)
		add(g.Pair[a])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].arc < out[j].arc })
	return out
}

func banSiteForAll(g *rgraph.Graph, s int32, nNets int) []banKey {
	var out []banKey
	for k := 0; k < nNets; k++ {
		for _, a := range g.Sites[s].Arcs {
			out = append(out, banKey{int32(k), a})
		}
	}
	return out
}
