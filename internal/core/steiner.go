package core

import (
	"fmt"
	"math"

	"optrouter/internal/rgraph"
)

// steinerCtx is the per-net view of the routing graph used by the exact
// Steiner arborescence solver: arcs may be banned (by ownership rules or by
// branch-and-bound decisions) and arcs may carry extra penalties (used by
// the negotiated-congestion heuristic).
type steinerCtx struct {
	g       *rgraph.Graph
	net     int
	banned  []bool  // per arc
	penalty []int64 // per arc, added to base cost (nil = none)
	solves  int     // steinerTree invocations (observability)
	cells   int64   // finite DP cells across all solves (deterministic work)
	maxBase int64   // max base arc cost, bounds the bucket-queue span
	arena   *SteinerArena
	// fullRelax disables the full-mask early exit, so the last row relaxes
	// to exhaustion; the kernel's differential test uses it as the oracle.
	fullRelax bool
}

func (c *steinerCtx) arcCost(a int32) int64 {
	cost := int64(c.g.Arcs[a].Cost)
	if c.penalty != nil {
		cost += c.penalty[a]
	}
	return cost
}

const infCost = math.MaxInt64 / 4

// maxSteinerSinks is the largest sink count the kernel solves: subset masks
// are stored in 16 bits. steinerTree reports a larger net as unroutable, so
// the solvers check the limit up front (checkSinkLimit) instead of reading
// that as infeasibility.
const maxSteinerSinks = 16

// checkSinkLimit returns an error naming the first net of g with more sinks
// than the Steiner kernel solves.
func checkSinkLimit(g *rgraph.Graph) error {
	for k, sinks := range g.SinkVerts {
		if len(sinks) > maxSteinerSinks {
			return fmt.Errorf("core: net %d (%q) of clip %s has %d sinks; the exact Steiner kernel solves at most %d",
				k, g.Clip.Nets[k].Name, g.Clip.Name, len(sinks), maxSteinerSinks)
		}
	}
	return nil
}

// maxBucketSpan bounds the Dial's-queue label range: solves whose seed spread
// plus worst-case path cost exceed it (the heuristic's congestion penalties
// grow large) fall back to the pooled binary heap.
const maxBucketSpan = 1 << 16

// bucketsOnly reports whether every solve on c takes the bucket-queue path
// for each mask row. A finite label is an optimal arborescence cost, at most
// maxArc·(nV−1), and a row's seeds are sums of two such labels, so a row's
// span is below 3·maxArc·nV. Penalties can change between solves, so a
// penalized context never qualifies.
func (c *steinerCtx) bucketsOnly() bool {
	return c.penalty == nil && 3*c.maxCost()*int64(c.g.NumVerts) <= maxBucketSpan
}

// pqItem is a priority-queue entry for the heap-fallback Dijkstra.
type pqItem struct {
	v    int32
	dist int64
}

func heapPush(h []pqItem, it pqItem) []pqItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []pqItem) (pqItem, []pqItem) {
	it := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h[l].dist < h[s].dist {
			s = l
		}
		if r < n && h[r].dist < h[s].dist {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	return it, h
}

// parentAction reconstructs Dreyfus-Wagner decisions.
type parentAction struct {
	// kind 0: none (base terminal), 1: arc step (arc id), 2: subset split
	// (submask; the complement is implied).
	kind    uint8
	arc     int32
	submask uint16
}

// steinerTree computes a minimum-cost Steiner arborescence for net k from
// its supersource to all its supersinks, honoring bans and penalties.
// Returns the used arcs, the total (penalized) cost, and feasibility.
//
// The algorithm is the Dijkstra-accelerated Dreyfus-Wagner dynamic program:
// dp[S][v] = min cost of an arborescence rooted at v covering sink set S,
// built by subset merging at v followed by a Dijkstra relaxation over
// incoming arcs. Terminal counts in clips are small (the paper's nets are
// 2-4 pins), so the 3^t term is negligible and per-subset Dijkstra over the
// clip graph dominates.
//
// All working storage lives in the ctx's arena; the returned arc slice is
// arena-owned and valid only until the next solve on the same arena — callers
// that persist it must copy.
func steinerTree(c *steinerCtx) (arcs []int32, cost int64, ok bool) {
	c.solves++
	g := c.g
	src := g.Source[c.net]
	sinks := g.SinkVerts[c.net]
	t := len(sinks)
	if t == 0 {
		return nil, 0, true
	}
	if t > maxSteinerSinks {
		return nil, 0, false // out of scope: see checkSinkLimit
	}
	nV := g.NumVerts
	full := (1 << t) - 1

	a := c.arena
	if a == nil {
		a = NewSteinerArena()
		c.arena = a
	}
	a.prepare(full+1, nV)
	dp, par, stamp := a.dp, a.par, a.stamp
	epoch := a.epoch

	for i, tv := range sinks {
		idx := (1<<i)*nV + int(tv)
		dp[idx] = 0
		par[idx] = parentAction{}
		stamp[idx] = epoch
		a.rowCnt[1<<i] = 1
	}

	// Per-mask Dijkstra label bound: seeds plus the longest simple path at
	// the maximum (penalized) arc cost. When that span fits, the monotone
	// bucket queue replaces the heap.
	maxArc := c.maxCost()

	for mask := 1; mask <= full; mask++ {
		base := mask * nV
		// Subset merge: dp[mask][v] = min over proper submasks containing
		// the lowest set bit (to halve enumeration). Rows with no finite
		// cell cannot contribute and are skipped outright.
		low := mask & (-mask)
		for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
			if sub&low == 0 {
				continue
			}
			other := mask ^ sub
			if a.rowCnt[sub] == 0 || a.rowCnt[other] == 0 {
				continue
			}
			sb, ob := sub*nV, other*nV
			for v := 0; v < nV; v++ {
				if stamp[sb+v] != epoch || stamp[ob+v] != epoch {
					continue
				}
				s := dp[sb+v] + dp[ob+v]
				if stamp[base+v] != epoch {
					stamp[base+v] = epoch
					a.rowCnt[mask]++
					dp[base+v] = s
					par[base+v] = parentAction{kind: 2, submask: uint16(sub)}
				} else if s < dp[base+v] {
					dp[base+v] = s
					par[base+v] = parentAction{kind: 2, submask: uint16(sub)}
				}
			}
		}
		if a.rowCnt[mask] == 0 {
			continue // no seeds: relaxation cannot produce anything
		}
		// Dijkstra relaxation: propagate along reversed arcs (dp values
		// live at tree roots; an arc u->v lets a root at u reach the
		// subtree rooted at v paying cost(u->v)).
		minSeed, maxSeed := int64(infCost), int64(-infCost)
		for v := 0; v < nV; v++ {
			if stamp[base+v] == epoch {
				if d := dp[base+v]; d < minSeed {
					minSeed = d
				}
				if d := dp[base+v]; d > maxSeed {
					maxSeed = d
				}
			}
		}
		// The full-mask row is only read at the source, so its relaxation
		// stops once the source pops with its final label: with nonnegative
		// arc costs no later relaxation can lower that label or change its
		// parent, and the tree and cost are those of the exhaustive run.
		stop := -1
		if mask == full && !c.fullRelax {
			stop = int(src)
		}
		span := maxSeed - minSeed + maxArc*int64(nV) + 1
		if span <= maxBucketSpan {
			c.dijkstraBuckets(a, base, nV, minSeed, epoch, stop)
		} else {
			c.dijkstraHeap(a, base, nV, epoch, stop)
		}
		if mask == full {
			break
		}
	}

	// Deterministic work accounting: every finite (mask, vertex) DP cell the
	// solve produced, read off the per-mask finite counters the arena
	// already maintains.
	for mask := 1; mask <= full; mask++ {
		c.cells += int64(a.rowCnt[mask])
	}

	rootIdx := full*nV + int(src)
	if stamp[rootIdx] != epoch {
		return nil, 0, false
	}

	// Reconstruct: walk (mask, vertex) pairs, deduping arcs via per-arc
	// epoch stamps (shouldn't repeat, but be safe).
	a.prepareSeen(len(g.Arcs))
	a.arcBuf = a.arcBuf[:0]
	stack := a.stack[:0]
	stack = append(stack, dwFrame{full, src})
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		pa := par[fr.mask*nV+int(fr.v)]
		switch pa.kind {
		case 0:
			// Base case: fr.v is the sink of a singleton mask.
		case 1:
			if a.seen[pa.arc] != a.seenEpoch {
				a.seen[pa.arc] = a.seenEpoch
				a.arcBuf = append(a.arcBuf, pa.arc)
			}
			stack = append(stack, dwFrame{fr.mask, g.Arcs[pa.arc].To})
		case 2:
			sub := int(pa.submask)
			stack = append(stack, dwFrame{sub, fr.v}, dwFrame{fr.mask ^ sub, fr.v})
		}
	}
	a.stack = stack
	return a.arcBuf, dp[rootIdx], true
}

// maxCost returns the maximum (penalized) arc cost. Penalties are
// nonnegative, so labels stay monotone and the bucket queue applies whenever
// the span fits.
func (c *steinerCtx) maxCost() int64 {
	if c.maxBase == 0 {
		m := int64(0)
		for i := range c.g.Arcs {
			if cc := int64(c.g.Arcs[i].Cost); cc > m {
				m = cc
			}
		}
		c.maxBase = m
	}
	if c.penalty == nil {
		return c.maxBase
	}
	maxPen := int64(0)
	for _, p := range c.penalty {
		maxPen = max(maxPen, p)
	}
	return c.maxBase + maxPen
}

// dijkstraBuckets relaxes one dp row with a monotone bucket (Dial's) queue:
// labels are offset by the minimum seed, every push lands at or after the
// bucket being drained (arc costs are nonnegative), and stale entries are
// detected by comparing the entry's implied label to the current cell value.
// The relaxation ends early when vertex stop (>= 0) pops with its final
// label; the entries still queued are dropped.
func (c *steinerCtx) dijkstraBuckets(a *SteinerArena, base, nV int, off int64, epoch uint32, stop int) {
	arcs, banned, pen := c.g.Arcs, c.banned, c.penalty
	dp, par, stamp := a.dp[base:base+nV], a.par[base:base+nV], a.stamp[base:base+nV]
	finite := &a.rowCnt[base/nV]
	remaining, top := 0, 0
	for v := 0; v < nV; v++ {
		if stamp[v] != epoch {
			continue
		}
		b := int(dp[v] - off)
		bk := a.bucketFor(b)
		*bk = append(*bk, int32(v))
		remaining++
		top = max(top, b)
	}
	// Index a.buckets[b] afresh on every access: pushing a new maximum label
	// grows the bucket list, which may move it.
	for b := 0; remaining > 0; b++ {
		for len(a.buckets[b]) > 0 {
			bk := a.buckets[b]
			n := len(bk) - 1
			v := bk[n]
			a.buckets[b] = bk[:n]
			remaining--
			dist := off + int64(b)
			if dp[v] != dist {
				continue // stale: relaxed to a smaller label after push
			}
			if int(v) == stop {
				for i := b; i <= top; i++ {
					a.buckets[i] = a.buckets[i][:0]
				}
				return
			}
			for _, aid := range c.g.In[v] {
				if banned[aid] {
					continue
				}
				arc := &arcs[aid]
				nd := dist + int64(arc.Cost)
				if pen != nil {
					nd += pen[aid]
				}
				u := arc.From
				if stamp[u] != epoch {
					stamp[u] = epoch
					*finite++
				} else if nd >= dp[u] {
					continue
				}
				dp[u] = nd
				par[u] = parentAction{kind: 1, arc: aid}
				nb := int(nd - off)
				nbk := a.bucketFor(nb)
				*nbk = append(*nbk, int32(u))
				remaining++
				top = max(top, nb)
			}
		}
	}
}

// dijkstraHeap is the pooled binary-heap Dijkstra used when labels don't fit
// the bucket span (large heuristic congestion penalties). stop is
// dijkstraBuckets'.
func (c *steinerCtx) dijkstraHeap(a *SteinerArena, base, nV int, epoch uint32, stop int) {
	g := c.g
	dp, par, stamp := a.dp, a.par, a.stamp
	h := a.heap[:0]
	for v := 0; v < nV; v++ {
		if stamp[base+v] == epoch {
			h = heapPush(h, pqItem{int32(v), dp[base+v]})
		}
	}
	for len(h) > 0 {
		var it pqItem
		it, h = heapPop(h)
		if it.dist > dp[base+int(it.v)] {
			continue
		}
		if int(it.v) == stop {
			break
		}
		for _, aid := range g.In[it.v] {
			if c.banned[aid] {
				continue
			}
			u := int(g.Arcs[aid].From)
			nd := it.dist + c.arcCost(aid)
			if stamp[base+u] == epoch && nd >= dp[base+u] {
				continue
			}
			if stamp[base+u] != epoch {
				stamp[base+u] = epoch
				a.rowCnt[base/nV]++
			}
			dp[base+u] = nd
			par[base+u] = parentAction{kind: 1, arc: aid}
			h = heapPush(h, pqItem{int32(u), nd})
		}
	}
	a.heap = h[:0]
}

// newSteinerCtx builds the per-net context with ownership bans applied. The
// arena (may be nil) supplies the ban vector and all solve-time storage;
// sharing one arena across the sequential solves of a search amortizes it.
func newSteinerCtx(g *rgraph.Graph, m ownership, k int, arena *SteinerArena) *steinerCtx {
	var banned []bool
	if arena != nil {
		banned = arena.getBans(len(g.Arcs))
	} else {
		banned = make([]bool, len(g.Arcs))
	}
	for a := range g.Arcs {
		if !m.allowed(k, int32(a)) {
			banned[a] = true
		}
	}
	return &steinerCtx{g: g, net: k, banned: banned, arena: arena}
}

// ownership answers per-net arc availability; both the ILP model and the
// combinatorial solvers share this logic.
type ownership struct {
	g          *rgraph.Graph
	superOwner []int32
}

func newOwnership(g *rgraph.Graph) ownership {
	so := make([]int32, g.NumVerts-g.NumGrid)
	for i := range so {
		so[i] = -1
	}
	for k, s := range g.Source {
		so[s-int32(g.NumGrid)] = int32(k)
	}
	for k, sinks := range g.SinkVerts {
		for _, t := range sinks {
			so[t-int32(g.NumGrid)] = int32(k)
		}
	}
	return ownership{g: g, superOwner: so}
}

func (o ownership) allowed(k int, a int32) bool {
	arc := o.g.Arcs[a]
	return o.vertAllowed(k, arc.From) && o.vertAllowed(k, arc.To)
}

// vertAllowed checks one endpoint; allowed unrolls it over From/To instead of
// ranging a fresh slice literal (this sits in the innermost ban-construction
// loop, once per arc per net per rule).
func (o ownership) vertAllowed(k int, v int32) bool {
	if o.g.IsGrid(v) {
		if owner := o.g.PinOwner[v]; owner >= 0 && owner != int32(k) {
			return false
		}
	} else if int(v)-o.g.NumGrid < len(o.superOwner) {
		if owner := o.superOwner[v-int32(o.g.NumGrid)]; owner >= 0 && owner != int32(k) {
			return false
		}
	}
	return true
}
