package core

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"optrouter/internal/drc"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
	"optrouter/internal/sched"
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
	// Progress, if non-nil, is invoked whenever the explored-node count
	// crosses a multiple of ProgressEvery and on every incumbent update with
	// a live view of the search.
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
	// Arena, if non-nil, supplies the Steiner kernel's reusable storage to
	// the heuristic seed and to search worker 0, the only worker when Par is
	// 0 or 1. Sharing one arena across sequential solves on related graphs
	// (the eleven rule configurations of a clip in a sweep) amortizes the
	// solver's working set; nil allocates a private arena. Arenas are not
	// safe for concurrent use, so every other worker of a parallel search
	// allocates a private one.
	Arena *SteinerArena

	// Par is the search's worker count. The search is one best-first loop:
	// each round pops open nodes off the priority queue, expands them, and
	// folds the outcomes back serially in pop order. Par = 0 runs rounds of
	// width 1 on the calling goroutine — the classic serial best-first
	// order. Par >= 1 runs rounds of a fixed width (independent of Par) over
	// Par internal/sched workers, so the answer — objective, proof status,
	// the routes themselves and the deterministic search counters — is
	// identical for every Par >= 1, including Par = 1.
	Par int

	// Floor is a proven lower bound on the optimum, for example a looser
	// rule's proven optimum on the same clip. The search stops as optimal
	// (termination "floor") once its incumbent costs no more than Floor.
	// 0 sets no floor.
	Floor int64
	// Incumbent, if non-nil, is a routing of g (NetArcs layout) that seeds
	// the incumbent before the heuristic seed, which replaces it only when
	// strictly cheaper. It must pass drc.Check on g and respect pin
	// ownership; SolveBnB returns an error otherwise.
	Incumbent [][]int32

	// testRoute, if non-nil, becomes every worker's bnbWorker.testRoute.
	testRoute func(w *bnbWorker, k int, arcs []int32, cost int64, inherited bool)
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
// them from the start of SolveBnB until it returns. Node expansions run on
// per-worker clocks; when a round's workers return, the round's wall time is
// split over the phases they recorded (see obs.PhaseClock.Apportion).
const (
	PhaseSetup   = "setup"   // per-net Steiner context construction
	PhaseSeed    = "seed"    // initial heuristic incumbent
	PhaseSteiner = "steiner" // per-net Steiner lower-bound solves
	PhaseDRC     = "drc"     // design-rule separation (EOL/via checks)
	PhaseDive    = "dive"    // primal dive-repair heuristic
	PhaseBranch  = "branch"  // strong-branching lookahead + child push
	PhaseSearch  = "search"  // node pop, pruning, bookkeeping
)

// parRoundWidth is the round width of a parallel search (Par >= 1). It must
// not depend on Par: the determinism guarantee rests on identical round
// boundaries for every worker count. 32 keeps 8 workers busy while bounding
// how far a round speculates past a new incumbent.
const parRoundWidth = 32

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

// banPrint fingerprints one net's ban set: the sum of the per-arc mixes and
// the set's size. The sum is order-independent and additive, so a child's
// fingerprint is its parent's plus the mixes of the bans it adds.
type banPrint struct {
	h uint64
	n int32
}

func banMix(arc int32) uint64 { return splitmix64(uint64(uint32(arc)) + 1) }

func (p *banPrint) add(arc int32) { p.h += banMix(arc); p.n++ }
func (p *banPrint) sub(arc int32) { p.h -= banMix(arc); p.n-- }

// bnbNode is an open search node: its bans are the chain to the root.
type bnbNode struct {
	parent *bnbNode
	bans   []banKey   // bans added at this node, none already in the parent's set
	fp     []banPrint // per-net fingerprints of the node's whole ban set
	routes netRoutes  // per-net optima under the node's bans (nil at the root)
	lb     int64      // lower bound: the sum of routes.cost (0 at the root)
	depth  int
	tie    uint64 // tieKey of the node's insertion sequence number
}

// netRoutes is one evaluation's per-net Steiner optima and their costs. The
// arc slices are shared and never written: they are route-cache entries or
// routes inherited from one.
type netRoutes struct {
	arcs [][]int32
	cost []int64
}

func newNetRoutes(nNets int) netRoutes {
	return netRoutes{arcs: make([][]int32, nNets), cost: make([]int64, nNets)}
}

func (r netRoutes) copyFrom(src netRoutes) {
	copy(r.arcs, src.arcs)
	copy(r.cost, src.cost)
}

// tieKey maps a node's fold-order insertion sequence number to its final
// priority key. splitmix64 is a bijection, so keys are unique and the queue
// order is total. The scramble takes equal-bound, equal-depth nodes in a
// fixed pseudo-random order: first-in-first-out sequence order explores up
// to 25% more nodes on the cmd/benchrun corpus.
func tieKey(seq int64) uint64 { return splitmix64(0x2d0f28c7e7e786b2 + uint64(seq)) }

// banSet is a worker's live ban set: an expanded node's bans plus the trial
// bans stacked on them. Membership is a per-(net, arc) stamp array, valid
// where it equals the current epoch, so loading a node clears nothing; each
// net also keeps the list of its bans and its fingerprint. Trial bans go on
// a journal and come off in reverse order, which keeps every net's list a
// stack.
type banSet struct {
	nArcs   int
	stamp   []uint32 // k*nArcs + arc
	epoch   uint32
	net     [][]int32
	fp      []banPrint
	journal []banKey
}

func newBanSet(nNets, nArcs int) *banSet {
	return &banSet{
		nArcs: nArcs,
		stamp: make([]uint32, nNets*nArcs),
		net:   make([][]int32, nNets),
		fp:    make([]banPrint, nNets),
	}
}

func (s *banSet) has(k int, arc int32) bool { return s.stamp[k*s.nArcs+int(arc)] == s.epoch }

// load replaces the set with node nd's bans.
func (s *banSet) load(nd *bnbNode) {
	s.epoch++
	if s.epoch == 0 {
		clear(s.stamp)
		s.epoch = 1
	}
	for k := range s.net {
		s.net[k] = s.net[k][:0]
	}
	copy(s.fp, nd.fp)
	s.journal = s.journal[:0]
	for cur := nd; cur != nil; cur = cur.parent {
		for _, b := range cur.bans {
			s.stamp[int(b.net)*s.nArcs+int(b.arc)] = s.epoch
			s.net[b.net] = append(s.net[b.net], b.arc)
		}
	}
}

// push adds bans, journaling those not already in the set, and returns the
// journal mark that rollback restores; journal[mark:] is then the delta.
func (s *banSet) push(bans []banKey) int {
	mark := len(s.journal)
	for _, b := range bans {
		i := int(b.net)*s.nArcs + int(b.arc)
		if s.stamp[i] == s.epoch {
			continue
		}
		s.stamp[i] = s.epoch
		s.net[b.net] = append(s.net[b.net], b.arc)
		s.fp[b.net].add(b.arc)
		s.journal = append(s.journal, b)
	}
	return mark
}

// rollback removes the bans journaled since mark.
func (s *banSet) rollback(mark int) {
	for i := len(s.journal) - 1; i >= mark; i-- {
		b := s.journal[i]
		s.stamp[int(b.net)*s.nArcs+int(b.arc)] = 0
		s.net[b.net] = s.net[b.net][:len(s.net[b.net])-1]
		s.fp[b.net].sub(b.arc)
	}
	s.journal = s.journal[:mark]
}

// nodePQ is a min-heap with a total order: lower bound, then deeper first
// (to reach leaves), then the tie key. The total order makes every popped
// round a pure function of the fold history.
type nodePQ []*bnbNode

func (p nodePQ) Len() int { return len(p) }
func (p nodePQ) Less(i, j int) bool {
	if p[i].lb != p[j].lb {
		return p[i].lb < p[j].lb
	}
	if p[i].depth != p[j].depth {
		return p[i].depth > p[j].depth
	}
	return p[i].tie < p[j].tie
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

// cachedRoute is one per-net route memo entry. Entries are immutable after
// insertion, so a reader holds a stable route while other workers append to
// the same bucket.
type cachedRoute struct {
	ids  []int32 // the net's banned arc ids (set-equality verification)
	arcs []int32
	cost int64
	ok   bool
}

// routeCache is the per-net route memo shared by a solve's workers: most
// branches ban arcs for a single net, so sibling nodes share nearly all
// per-net Steiner solutions. Entries are keyed by the net's banPrint hash —
// probing allocates nothing — in one mutex-guarded shard per net, so
// different nets never contend. The cache can change only when a route is
// computed, never what it is.
type routeCache []routeShard

type routeShard struct {
	mu sync.Mutex
	m  map[uint64][]*cachedRoute
}

func newRouteCache(nNets int) routeCache {
	c := make(routeCache, nNets)
	for k := range c {
		c[k].m = map[uint64][]*cachedRoute{}
	}
	return c
}

// lookupRoute scans the same-fingerprint cache entries for one whose ban-id
// set equals net k's bans in the set. Entries are verified by size and
// membership rather than trusted on hash equality, so a fingerprint
// collision degrades to a cache miss, never a wrong route (see
// TestRouteCacheCollisionSafety).
func lookupRoute(entries []*cachedRoute, k int, bans *banSet) *cachedRoute {
	cnt := int(bans.fp[k].n)
	for _, e := range entries {
		if len(e.ids) != cnt {
			continue
		}
		match := true
		for _, id := range e.ids {
			if !bans.has(k, id) {
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

func (c routeCache) lookup(k int, bans *banSet) *cachedRoute {
	s := &c[k]
	s.mu.Lock()
	defer s.mu.Unlock()
	return lookupRoute(s.m[bans.fp[k].h], k, bans)
}

// insert publishes a computed route, deduplicating against a racing worker
// that computed the same ban set concurrently: the first insertion wins and
// everyone shares its entry (the routes are identical either way, since the
// Steiner kernel is deterministic).
func (c routeCache) insert(k int, bans *banSet, ent *cachedRoute) *cachedRoute {
	s := &c[k]
	s.mu.Lock()
	defer s.mu.Unlock()
	h := bans.fp[k].h
	if prev := lookupRoute(s.m[h], k, bans); prev != nil {
		return prev
	}
	s.m[h] = append(s.m[h], ent)
	return ent
}

// bnbWorker is one worker's private node-expansion state. A sched worker id
// runs one job at a time and rounds are barriers, so no field needs a lock.
type bnbWorker struct {
	id       int
	g        *rgraph.Graph
	cache    routeCache
	fl       *obs.Flight
	ctxs     []*steinerCtx
	baseBans [][]bool
	drc      *drc.Checker
	bans     *banSet
	clock    *obs.PhaseClock

	// Per-net route buffers: the root's routes, a dive step's and a trial
	// evaluation's.
	root, dive, trial netRoutes
	// cands holds the violations strong branching considers; kids, kidBans
	// and kidRoutes collect one violation's children, their ban deltas and
	// their routes.
	cands     []drc.Violation
	kids      []childNode
	kidBans   []banKey
	kidRoutes netRoutes

	// testRoute, if non-nil, is called on every per-net route evaluate
	// takes, an unroutable net's included; inherited reports that it came
	// from the reference routes. Tests use it to re-solve inherited routes.
	testRoute func(w *bnbWorker, k int, arcs []int32, cost int64, inherited bool)

	// Counters folded into SolveStats after the search. The per-worker split
	// is scheduling-dependent; the sums are deterministic, except cacheHits,
	// which depends on how workers interleave route computations.
	nodes     int
	cacheHits int
	inherited int
	drcChecks int
	drcTime   time.Duration
	dives     int
}

func newBnBWorker(id int, g *rgraph.Graph, own ownership, cache routeCache, fl *obs.Flight, arena *SteinerArena) *bnbWorker {
	nNets := len(g.Clip.Nets)
	w := &bnbWorker{
		id: id, g: g, cache: cache, fl: fl,
		ctxs:     make([]*steinerCtx, nNets),
		baseBans: make([][]bool, nNets),
		drc:      drc.NewChecker(g),
		bans:     newBanSet(nNets, len(g.Arcs)),
		clock:    obs.NewPhaseClock(),
		root:     newNetRoutes(nNets),
		dive:     newNetRoutes(nNets),
		trial:    newNetRoutes(nNets),
	}
	for k := 0; k < nNets; k++ {
		w.ctxs[k] = newSteinerCtx(g, own, k, arena)
		w.baseBans[k] = append([]bool(nil), w.ctxs[k].banned...)
	}
	return w
}

// evaluate solves all per-net Steiner problems under the live ban set into
// out and returns their total cost, or feasible = false at the first
// unroutable net (out is then partly stale).
//
// ref, if non-nil, holds routes evaluated under a subset of the live bans:
// the expanded node's for a strong-branching trial, the dive step's for a
// dive trial or the next dive step. Route inheritance: when none of net k's
// live bans lies on ref's route for k, that route and its cost are taken,
// and neither the route cache nor the kernel is consulted. The route avoids
// every live ban and was optimal under a subset of them, so it is optimal
// under the live set: its cost, and with it every bound and answer of the
// search, is the kernel's.
//
// The arcs are the kernel's as well unless the kernel has several optimal
// trees. The bucket-queue Dreyfus-Wagner kernel (steinerTree,
// dijkstraBuckets) has nonnegative arc costs, updates a label only on strict
// improvement (the first achiever keeps a tie), and drains each bucket as a
// LIFO stack; banning arcs off the returned tree only raises labels off the
// tree, so every tree cell keeps its label and its parent is still an
// achiever. But which tied achiever pops first follows push order, and a ban
// can delay an off-tree label's push past a tree cell's achiever and win the
// tie: the kernel then returns another tree of the same cost, and the search
// explores a different, equally exact tree (EXPERIMENTS.md "Route
// inheritance"; TestInheritedRoutesMatchKernel pins equality on the golden
// clips). The heap fallback's tie order shifts with every off-tree label, so
// nets whose solves may take it (bucketsOnly false) always solve.
//
// Inherited routes are neither looked up in nor inserted into the route
// cache, so cache entries stay pure kernel outputs; whether a trial inherits
// depends only on the expanded node, so the parallel search stays
// deterministic. The Steiner phase clock runs only around kernel solves;
// cache lookups and inheritance checks are charged to the calling phase.
func (w *bnbWorker) evaluate(out netRoutes, ref *netRoutes) (lb int64, feasible bool) {
	for k, ctx := range w.ctxs {
		if ref != nil && ctx.bucketsOnly() && w.misses(k, ref.arcs[k]) {
			out.arcs[k], out.cost[k] = ref.arcs[k], ref.cost[k]
			w.inherited++
			if w.testRoute != nil {
				w.testRoute(w, k, out.arcs[k], out.cost[k], true)
			}
			lb += out.cost[k]
			continue
		}
		cr := w.cache.lookup(k, w.bans)
		if cr != nil {
			w.cacheHits++
		} else {
			copy(ctx.banned, w.baseBans[k])
			ids := w.bans.net[k]
			for _, a := range ids {
				ctx.banned[a] = true
			}
			prev := w.clock.Swap(PhaseSteiner)
			arcs, cost, ok := steinerTree(ctx)
			ent := &cachedRoute{ids: slices.Clone(ids), cost: cost, ok: ok}
			if ok {
				// The solver's arc buffer is arena-owned; the cache outlives
				// the next solve, so it keeps a copy.
				ent.arcs = slices.Clone(arcs)
			}
			w.clock.Enter(prev)
			cr = w.cache.insert(k, w.bans, ent)
		}
		if w.testRoute != nil {
			w.testRoute(w, k, cr.arcs, cr.cost, false)
		}
		if !cr.ok {
			return 0, false
		}
		out.arcs[k], out.cost[k] = cr.arcs, cr.cost
		lb += cr.cost
	}
	return lb, true
}

// misses reports whether net k's live ban set has no arc of route.
func (w *bnbWorker) misses(k int, route []int32) bool {
	for _, a := range route {
		if w.bans.has(k, a) {
			return false
		}
	}
	return true
}

// checkDRC wraps the worker's rule checker with count/time accounting,
// attributing the check to the DRC phase whichever phase drove it. The
// violations live in the checker until its next check.
func (w *bnbWorker) checkDRC(routes [][]int32) []drc.Violation {
	prev := w.clock.Swap(PhaseDRC)
	t0 := time.Now()
	viols := w.drc.Check(routes)
	w.drcChecks++
	w.drcTime += time.Since(t0)
	w.clock.Enter(prev)
	return viols
}

// tryBans speculatively adds child bans to the live set and evaluates into
// the trial buffer, inheriting from ref, the routes under the set before the
// push. The bans stay pushed: the caller reads the delta at journal[mark:]
// and rolls back to mark.
func (w *bnbWorker) tryBans(childBans []banKey, ref netRoutes) (cost int64, ok bool, mark int) {
	mark = w.bans.push(childBans)
	cost, ok = w.evaluate(w.trial, &ref)
	return cost, ok, mark
}

// diveRepair greedily resolves violations from the live ban set by
// applying, at each conflict, the child ban whose re-route is cheapest. It
// is a primal heuristic only — bans explored here are not removed from the
// tree — but it supplies early incumbents that best-first search needs for
// pruning, especially under SADP rules where the standalone heuristic
// router often fails. node holds the routes under the live set. The live
// set is restored before it returns. It returns (-1, nil) when it finds
// nothing below cutoff.
func (w *bnbWorker) diveRepair(cutoff int64, node netRoutes) (int64, [][]int32) {
	start := len(w.bans.journal)
	defer w.bans.rollback(start)
	routes := w.dive
	routes.copyFrom(node)
	for step := 0; step < 24; step++ {
		// Each step's routes inherit from the previous step's, in place.
		cost, feasible := w.evaluate(routes, &routes)
		if !feasible || cost >= cutoff {
			return -1, nil // infeasible or already dominated
		}
		viols := w.checkDRC(routes.arcs)
		if len(viols) == 0 {
			return cost, slices.Clone(routes.arcs)
		}
		v := pickViolation(viols)
		bestCost := int64(-1)
		var bestBans []banKey
		for _, childBans := range branchBans(w.g, v, routes.arcs) {
			if len(childBans) == 0 {
				continue
			}
			c, ok, mark := w.tryBans(childBans, routes)
			w.bans.rollback(mark)
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
		w.bans.push(bestBans)
	}
	return -1, nil
}

// nodeTask is one node dispatched in a round. Every decision that depends
// on search state is fixed from round-start state before dispatch, so an
// expansion depends neither on which worker runs it nor on the other nodes
// of its round.
type nodeTask struct {
	nd   *bnbNode
	num  int   // 1-based node number
	cut  int64 // pruning cutoff at round start
	bnd  int64 // global lower bound at round start (-1 before the root)
	inc  int64 // incumbent at round start (-1 = none)
	dive bool  // run the primal dive
}

// childNode is one feasible, non-dominated child produced by strong
// branching: the bans it adds to its parent's set, the size of the branch's
// ban set before bans already in the parent's were dropped, its routes, and
// its bound (their total cost).
type childNode struct {
	bans   []banKey
	gen    int
	routes netRoutes
	lb     int64
}

// expansion is the outcome of expanding one node. Everything the fold needs
// is here; workers never touch shared search state.
type expansion struct {
	act        string // infeasible | dominated | solved | fathom | branch
	lb         int64
	routes     [][]int32 // solved: the jointly legal per-net optima
	children   []childNode
	diveCost   int64     // dive incumbent candidate (-1 = none)
	diveRoutes [][]int32 // its routes
}

// nodeEvent feeds the flight recorder one structured record per search
// node: the action taken, the node's position (n, d), its lower bound, the
// expanding worker, and the global bound/incumbent state the node was
// dispatched under. Every attr is integral, so records marshal
// unconditionally. With recording off fl is nil and the call is one
// comparison.
func nodeEvent(fl *obs.Flight, act string, n, d int, lb int64, worker int, bnd, inc int64, extra ...obs.Attr) {
	if fl == nil {
		return
	}
	attrs := make([]obs.Attr, 0, 7+len(extra))
	attrs = append(attrs,
		obs.A("act", act), obs.A("n", n), obs.A("d", d), obs.A("lb", lb), obs.A("w", worker))
	if bnd >= 0 {
		attrs = append(attrs, obs.A("bnd", bnd))
	}
	if inc >= 0 {
		attrs = append(attrs, obs.A("inc", inc))
	}
	fl.Event("node", append(attrs, extra...)...)
}

// expand is the one node-expansion routine of the CDC-BnB: take the node's
// per-net Steiner optima (evaluated here only at the root; every other node
// carries the routes strong branching evaluated for it), prune, check the
// design rules, and — when the routes conflict — run the primal dive if
// due, then strong-branch. It runs on the worker's own clock.
func (w *bnbWorker) expand(t nodeTask) expansion {
	w.clock.Enter(PhaseSearch)
	defer w.clock.Stop()
	w.nodes++
	nd := t.nd
	out := expansion{lb: nd.lb, diveCost: -1}
	emit := func(act string, lb int64, extra ...obs.Attr) expansion {
		out.act = act
		nodeEvent(w.fl, act, t.num, nd.depth, lb, w.id, t.bnd, t.inc, extra...)
		return out
	}

	w.bans.load(nd)
	routes, lb := nd.routes, nd.lb
	if routes.arcs == nil {
		routes = w.root
		var feasible bool
		if lb, feasible = w.evaluate(routes, nil); !feasible {
			return emit("infeasible", nd.lb)
		}
	}
	out.lb = lb
	if lb >= t.cut {
		return emit("dominated", lb)
	}
	viols := w.checkDRC(routes.arcs)
	if len(viols) == 0 {
		// The per-net optima are jointly legal: node solved exactly.
		out.routes = slices.Clone(routes.arcs)
		return emit("solved", lb)
	}

	// The dive checks other routings on the same checker, so the candidates
	// it would overwrite are copied out first.
	w.cands = candidateViolations(w.cands[:0], viols, 3)
	if t.dive {
		for i := range w.cands {
			w.cands[i] = cloneViolation(w.cands[i])
		}
		w.clock.Enter(PhaseDive)
		w.dives++
		out.diveCost, out.diveRoutes = w.diveRepair(t.cut, routes)
		w.clock.Enter(PhaseSearch)
	}

	// Strong branching: among the highest-ranked violations, pick the one
	// whose worst (minimum-bound) feasible child is largest — it tightens the
	// subtree the most. Children carry the routes evaluated here, so a
	// popped child is not evaluated again.
	w.clock.Enter(PhaseBranch)
	bestScore := int64(-1)
	var kind string // violation kind branched on (flight-recorder attr)
	for _, v := range w.cands {
		// Children are collected in worker scratch; only the chosen ones are
		// copied into the expansion.
		kids, delta := w.kids[:0], w.kidBans[:0]
		kr := netRoutes{w.kidRoutes.arcs[:0], w.kidRoutes.cost[:0]}
		minLB := int64(1) << 60
		for _, childBans := range branchBans(w.g, v, routes.arcs) {
			clb, ok, mark := w.tryBans(childBans, routes)
			if ok && clb < t.cut {
				n, r := len(delta), len(kr.arcs)
				delta = append(delta, w.bans.journal[mark:]...)
				kr.arcs = append(kr.arcs, w.trial.arcs...)
				kr.cost = append(kr.cost, w.trial.cost...)
				kids = append(kids, childNode{
					bans:   delta[n:len(delta):len(delta)],
					gen:    len(childBans),
					routes: netRoutes{kr.arcs[r:], kr.cost[r:]},
					lb:     clb,
				})
				minLB = min(minLB, clb)
			}
			w.bans.rollback(mark)
		}
		w.kids, w.kidBans, w.kidRoutes = kids, delta, kr
		if len(kids) == 0 {
			// Every child of this violation is infeasible or dominated: the
			// node itself is settled.
			out.children = nil
			kind = v.Kind.String()
			break
		}
		if minLB > bestScore {
			bestScore = minLB
			out.children = cloneChildren(kids)
			kind = v.Kind.String()
		}
	}
	w.clock.Enter(PhaseSearch)
	if len(out.children) == 0 {
		return emit("fathom", lb, obs.A("kind", kind))
	}
	return emit("branch", lb, obs.A("kind", kind), obs.A("kids", len(out.children)))
}

// SolveBnB computes a provably optimal routing with the conflict-driven
// combinatorial branch-and-bound (CDC-BnB): per-net exact minimum Steiner
// arborescences provide admissible lower bounds; when the union of per-net
// optima violates a design rule, children are generated by forbidding, for
// one involved net, one arc of the realized conflict — a cover of all
// feasible solutions, so optimality is preserved (see DESIGN.md).
//
// The search is one best-first loop of rounds. A round pops up to its width
// of open nodes below the cutoff, fixes every state-dependent decision (node
// numbers, the cutoff, dive triggers) at dispatch, expands the nodes — inline
// on the caller's goroutine when one worker suffices, else on an
// internal/sched pool — and folds the outcomes back serially in pop order.
// The width is 1 for Par = 0 and parRoundWidth for Par >= 1; since neither
// depends on the worker count, and the queue order, the expansion and the
// fold are all deterministic, the explored tree is identical for every
// Par >= 1. Scheduling-dependent quantities (which worker expanded which
// node, cache hits, wall times) are outside that guarantee. A clip
// with a net of more sinks than the Steiner kernel solves is an error, not
// an infeasible verdict.
func SolveBnB(g *rgraph.Graph, opt BnBOptions) (*Solution, error) {
	start := time.Now()
	if err := checkSinkLimit(g); err != nil {
		return nil, err
	}
	own := newOwnership(g)
	if opt.Incumbent != nil {
		if err := checkIncumbent(g, own, opt.Incumbent); err != nil {
			return nil, err
		}
	}
	opt = opt.withDefaults()
	nNets := len(g.Clip.Nets)
	arena := opt.Arena
	if arena == nil {
		arena = NewSteinerArena()
	}
	arena.resetBans() // recycle ban vectors from a previous solve on this arena

	stats := SolveStats{Par: opt.Par}
	gst := g.Stats()
	span := opt.Tracer.Start("bnb.solve",
		obs.A("clip", g.Clip.Name),
		obs.A("nets", nNets),
		obs.A("verts", gst.Verts),
		obs.A("arcs", gst.Arcs),
		obs.A("par", opt.Par))
	fl := obs.NewFlight(span, opt.Flight)

	// Wall-time attribution: the clock is open on exactly one phase from here
	// until the solve returns, so stats.Phases partitions the elapsed time.
	clock := obs.NewPhaseClock()
	clock.Enter(PhaseSeed)

	var best *Solution
	var bestCost int64 = 1 << 60
	nodes := 0
	curBound := int64(-1) // global lower bound (lb of the last round's first node)
	curDepth := 0         // depth of the last round's first node
	pq := &nodePQ{}
	incumbent := func() int64 {
		if best == nil {
			return -1
		}
		return bestCost
	}
	sample := func() {
		if len(stats.BoundTrace) >= maxTraceSamples {
			return
		}
		stats.BoundTrace = append(stats.BoundTrace, BoundSample{
			ElapsedMS: msSince(start), Nodes: nodes, Depth: curDepth,
			Open: pq.Len(), Bound: curBound, Incumbent: incumbent(),
		})
	}
	reportProgress := func() {
		if opt.Progress != nil {
			opt.Progress(BnBProgress{
				Nodes: nodes, Open: pq.Len(), Incumbent: incumbent(),
				Bound: curBound, Elapsed: time.Since(start),
			})
		}
	}
	setIncumbent := func(sol *Solution, node int, source string) {
		best, bestCost = sol, int64(sol.Cost)
		stats.Incumbents++
		sample()
		attrs := []obs.Attr{obs.A("cost", sol.Cost)}
		if node > 0 {
			attrs = append(attrs, obs.A("node", node))
		}
		if source != "" {
			attrs = append(attrs, obs.A("source", source))
		}
		span.Event("incumbent", attrs...)
	}

	if opt.Incumbent != nil {
		sol := &Solution{Feasible: true, NetArcs: opt.Incumbent}
		summarize(g, sol)
		setIncumbent(sol, 0, "given")
	}
	searchable := true
	if !opt.NoHeuristicSeed {
		hspan := span.Child("heuristic.seed")
		h := SolveHeuristic(g, HeuristicOptions{Arena: arena})
		hspan.SetAttr("feasible", h.Feasible)
		hspan.End()
		if h.Feasible && int64(h.Cost) < bestCost {
			setIncumbent(h, 0, "heuristic-seed")
		} else if !h.Feasible && h.Proven {
			searchable = false // proven infeasible by the probe
		}
	}

	width := 1
	if opt.Par > 0 {
		width = parRoundWidth
	}
	// Worker 0 expands single-worker rounds inline on this goroutine, with
	// the caller's arena; the other workers of a parallel search get private
	// arenas.
	var workers []*bnbWorker
	var clocks []*obs.PhaseClock
	if searchable {
		clock.Enter(PhaseSetup)
		cache := newRouteCache(nNets)
		for id := 0; id < max(opt.Par, 1); id++ {
			a := arena
			if id > 0 {
				a = NewSteinerArena()
			}
			w := newBnBWorker(id, g, own, cache, fl, a)
			w.testRoute = opt.testRoute
			workers = append(workers, w)
			clocks = append(clocks, w.clock)
		}
		heap.Push(pq, &bnbNode{fp: make([]banPrint, nNets), tie: tieKey(0)})
	}
	runCtx := opt.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}

	clock.Enter(PhaseSearch)
	proven := true
	seq := int64(0)
	batch := make([]*bnbNode, 0, width)
	tasks := make([]nodeTask, 0, width)
	outs := make([]sched.Result[expansion], 0, width)
	for pq.Len() > 0 {
		if opt.Floor > 0 && best != nil && bestCost <= opt.Floor {
			stats.Termination = "floor" // the incumbent meets a proven bound
			break
		}
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
		if runCtx.Err() != nil {
			proven = false
			stats.Termination = "cancelled"
			break
		}
		cut := bestCost
		// Pop the round; stop at the cutoff — best-first order means every
		// node behind a dominated top is dominated too — and at the node
		// budget.
		batch = batch[:0]
		for len(batch) < min(width, opt.MaxNodes-nodes) && pq.Len() > 0 && (*pq)[0].lb < cut {
			batch = append(batch, heap.Pop(pq).(*bnbNode))
		}
		if len(batch) == 0 {
			top := (*pq)[0]
			nodeEvent(fl, "cutoff", nodes, top.depth, top.lb, -1, curBound, incumbent())
			break // every open node is dominated: search complete
		}
		if batch[0].lb > curBound {
			curBound = batch[0].lb
			// Leave headroom so incumbent/termination samples still fit when
			// bound improvements alone would exhaust the trace cap.
			if len(stats.BoundTrace) < maxTraceSamples-64 {
				sample()
			}
		}
		curDepth = batch[0].depth

		// Dispatch: node numbers and dive triggers come from round-start
		// state, so they do not depend on the workers.
		nodesBefore := nodes
		nodes += len(batch)
		tasks = tasks[:0]
		for i, nd := range batch {
			stats.MaxDepth = max(stats.MaxDepth, nd.depth)
			num := nodesBefore + i + 1
			tasks = append(tasks, nodeTask{
				nd: nd, num: num, cut: cut, bnd: curBound, inc: incumbent(),
				dive: num == 1 || num%512 == 0,
			})
		}
		nw := min(len(workers), len(tasks))
		if nw == 1 {
			outs = outs[:0]
			for _, t := range tasks {
				r := sched.Result[expansion]{Err: runCtx.Err()}
				if r.Err == nil {
					r.Value = workers[0].expand(t)
				}
				outs = append(outs, r)
			}
		} else {
			jobs := make([]sched.Job[expansion], len(tasks))
			for i, t := range tasks {
				jobs[i] = func(jctx context.Context) (expansion, error) {
					return workers[sched.WorkerID(jctx)].expand(t), nil
				}
			}
			outs = sched.Run(runCtx, jobs, sched.Options{Workers: nw})
		}
		clock.Apportion(PhaseSearch, clocks...)

		// Serial fold in pop order: incumbent updates, child insertion and
		// sequence numbering depend only on the deterministic outcome list.
		for i, r := range outs {
			nd := batch[i]
			if r.Panicked {
				return nil, r.Err
			}
			if r.Err != nil {
				proven = false
				stats.Termination = "cancelled"
				continue
			}
			out := r.Value
			switch out.act {
			case "solved":
				if out.lb < bestCost {
					sol := &Solution{Feasible: true, NetArcs: out.routes, Proven: true}
					summarize(g, sol)
					setIncumbent(sol, nodesBefore+i+1, "")
					reportProgress()
				}
			case "fathom", "branch":
				if out.diveCost >= 0 && out.diveCost < bestCost {
					sol := &Solution{Feasible: true, NetArcs: out.diveRoutes}
					summarize(g, sol)
					setIncumbent(sol, nodesBefore+i+1, "dive")
					reportProgress()
				}
				for _, ch := range out.children {
					stats.BansGenerated += ch.gen
					seq++
					fp := slices.Clone(nd.fp)
					for _, b := range ch.bans {
						fp[b.net].add(b.arc)
					}
					heap.Push(pq, &bnbNode{parent: nd, bans: ch.bans, fp: fp, routes: ch.routes, lb: ch.lb, depth: nd.depth + 1, tie: tieKey(seq)})
				}
			}
			nd.routes = netRoutes{} // an expanded node is only a ban-chain link
		}
		if stats.Termination == "cancelled" {
			break
		}
		if nodes/opt.ProgressEvery > nodesBefore/opt.ProgressEvery {
			reportProgress()
		}
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
	if opt.Par > 0 {
		stats.NodesPerWorker = make([]int, len(workers))
	}
	for id, w := range workers {
		if stats.NodesPerWorker != nil {
			stats.NodesPerWorker[id] = w.nodes
		}
		stats.SteinerCacheHits += w.cacheHits
		stats.SteinerInherited += w.inherited
		stats.DRCChecks += w.drcChecks
		stats.DRCTime += w.drcTime
		stats.Dives += w.dives
		for _, ctx := range w.ctxs {
			stats.SteinerSolves += ctx.solves
			stats.SteinerCells += ctx.cells
		}
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
	if span != nil { // untraced solves skip boxing every counter
		stats.EachNonzero(func(name string, v int64) { span.SetAttr(name, v) })
	}
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

// checkIncumbent verifies a given incumbent: one arc list per net, arc ids
// in range, no arc pin ownership forbids the net, and no violation of g's
// design rules.
func checkIncumbent(g *rgraph.Graph, own ownership, routes [][]int32) error {
	if len(routes) != len(g.Clip.Nets) {
		return fmt.Errorf("core: incumbent has %d nets, clip %s has %d", len(routes), g.Clip.Name, len(g.Clip.Nets))
	}
	for k, arcs := range routes {
		for _, a := range arcs {
			if a < 0 || int(a) >= len(g.Arcs) {
				return fmt.Errorf("core: incumbent net %d uses arc %d, graph has %d", k, a, len(g.Arcs))
			}
			if !own.allowed(k, a) {
				return fmt.Errorf("core: incumbent net %d uses arc %d at another net's pin", k, a)
			}
		}
	}
	if v := drc.Check(g, routes); len(v) > 0 {
		return fmt.Errorf("core: incumbent violates %d design rules under %s, first %v", len(v), g.Opt.Rule.Name, v[0])
	}
	return nil
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

// candidateViolations appends to dst up to n violations in rank order for
// strong branching.
func candidateViolations(dst, viols []drc.Violation, n int) []drc.Violation {
	sorted := append(dst, viols...)
	slices.SortStableFunc(sorted, func(a, b drc.Violation) int {
		return cmp.Compare(violationRank(a), violationRank(b))
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// cloneViolation copies a violation out of the checker that owns its slices.
func cloneViolation(v drc.Violation) drc.Violation {
	v.Nets = slices.Clone(v.Nets)
	v.Verts = slices.Clone(v.Verts)
	v.Arcs = slices.Clone(v.Arcs)
	v.Sites = slices.Clone(v.Sites)
	v.EOLs = slices.Clone(v.EOLs)
	return v
}

// cloneChildren copies children collected in worker scratch, their ban
// deltas into one shared backing array and their routes into another.
func cloneChildren(kids []childNode) []childNode {
	n := 0
	for _, ch := range kids {
		n += len(ch.bans)
	}
	bans := make([]banKey, 0, n)
	nNets := len(kids[0].routes.arcs)
	routes := newNetRoutes(len(kids) * nNets)
	out := make([]childNode, len(kids))
	for i, ch := range kids {
		start := len(bans)
		bans = append(bans, ch.bans...)
		lo, hi := i*nNets, (i+1)*nNets
		out[i] = ch
		out[i].bans = bans[start:len(bans):len(bans)]
		out[i].routes = netRoutes{routes.arcs[lo:hi:hi], routes.cost[lo:hi:hi]}
		out[i].routes.copyFrom(ch.routes)
	}
	return out
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
		var intruderBan []banKey
		for _, a := range g.In[fv] {
			if !slices.Contains(g.Sites[s].Arcs, a) {
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

// banVertex bans net k from every arc at vert, in arc order.
func banVertex(g *rgraph.Graph, k int32, vert int32) []banKey {
	out := make([]banKey, 0, 2*(len(g.In[vert])+len(g.Out[vert])))
	for _, arcs := range [2][]int32{g.In[vert], g.Out[vert]} {
		for _, a := range arcs {
			for _, b := range [2]int32{a, g.Pair[a]} {
				if !slices.Contains(out, banKey{k, b}) {
					out = append(out, banKey{k, b})
				}
			}
		}
	}
	slices.SortFunc(out, func(x, y banKey) int { return cmp.Compare(x.arc, y.arc) })
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
