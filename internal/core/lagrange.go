package core

import (
	"optrouter/internal/rgraph"
)

// lagrangian strengthens the per-net-independent lower bound by dualizing
// the shared-resource capacity constraints (arc pairs and grid vertices):
// for any nonnegative penalty vector lambda,
//
//	L(lambda) = sum_k min-cost-Steiner_k(c + lambda) - sum_r lambda_r
//
// is a valid lower bound on the optimal joint routing cost, because every
// feasible solution uses each resource at most once and so pays at most
// sum_r lambda_r of the added penalties. Each bound call starts from zero
// penalties and moves them by subgradient steps (raise overused resources,
// decay unused ones).
//
// All state is dense and owned by one search worker: per-resource arrays
// plus lists of the entries in use, so a bound call allocates nothing and
// clears only what it touched.
type lagrangian struct {
	g *rgraph.Graph
	// lambdaArc[canonical arc id] and lambdaVert[grid vertex] are the
	// current penalties; activeArcs and activeVerts list the positive ones.
	lambdaArc   []int64
	lambdaVert  []int64
	activeArcs  []int32
	activeVerts []int32
	// useArc and useVert count a round's uses of each resource; usedArcs and
	// usedVerts list the resources counted.
	useArc    []int32
	useVert   []int32
	usedArcs  []int32
	usedVerts []int32
	// seenV[v] == seenEpoch marks a vertex the current net already entered.
	seenV     []uint32
	seenEpoch uint32
	penalty   []int64 // per-arc scratch, rebuilt per evaluation
}

func newLagrangian(g *rgraph.Graph) *lagrangian {
	nA := len(g.Arcs)
	return &lagrangian{
		g:          g,
		lambdaArc:  make([]int64, nA),
		lambdaVert: make([]int64, g.NumVerts),
		useArc:     make([]int32, nA),
		useVert:    make([]int32, g.NumVerts),
		seenV:      make([]uint32, g.NumVerts),
		penalty:    make([]int64, nA),
	}
}

// canonArc maps a directed arc to its undirected resource id.
func (l *lagrangian) canonArc(a int32) int32 {
	if p := l.g.Pair[a]; p < a {
		return p
	}
	return a
}

// totalLambda sums all active penalties (the constant term of L).
func (l *lagrangian) totalLambda() int64 {
	t := int64(0)
	for _, r := range l.activeArcs {
		t += l.lambdaArc[r]
	}
	for _, v := range l.activeVerts {
		t += l.lambdaVert[v]
	}
	return t
}

// loadPenalties fills the per-arc scratch from the active penalties.
func (l *lagrangian) loadPenalties() {
	clear(l.penalty)
	for _, ca := range l.activeArcs {
		v := l.lambdaArc[ca]
		l.penalty[ca] += v
		l.penalty[l.g.Pair[ca]] += v
	}
	for _, vert := range l.activeVerts {
		v := l.lambdaVert[vert]
		for _, in := range l.g.In[vert] {
			l.penalty[in] += v
		}
	}
}

// resetUse zeroes the previous round's use counts.
func (l *lagrangian) resetUse() {
	for _, r := range l.usedArcs {
		l.useArc[r] = 0
	}
	for _, v := range l.usedVerts {
		l.useVert[v] = 0
	}
	l.usedArcs, l.usedVerts = l.usedArcs[:0], l.usedVerts[:0]
}

// nextNet opens a fresh per-net vertex dedupe epoch.
func (l *lagrangian) nextNet() {
	l.seenEpoch++
	if l.seenEpoch == 0 {
		clear(l.seenV)
		l.seenEpoch = 1
	}
}

// step is one subgradient update: raise each overused resource by its
// excess use, then lower every other active penalty by one, dropping those
// that reach zero.
func step(lambda []int64, active []int32, use []int32, used []int32) []int32 {
	for _, r := range used {
		if n := use[r]; n >= 2 {
			if lambda[r] == 0 {
				active = append(active, r)
			}
			lambda[r] += int64(n - 1)
		}
	}
	kept := active[:0]
	for _, r := range active {
		if use[r] <= 1 {
			lambda[r]--
			if lambda[r] <= 0 {
				lambda[r] = 0
				continue
			}
		}
		kept = append(kept, r)
	}
	return kept
}

// bound evaluates the dual from zero penalties under the given per-net
// contexts (bans applied by the caller): L(0) and then `rounds` subgradient
// updates, each followed by a re-evaluation of L. It returns the best bound
// seen; a negative return means some net was unroutable (the node is
// infeasible regardless of penalties). Starting from zero makes the bound a
// pure function of the graph and the applied bans, whichever search worker
// computes it. routes, if non-nil, are the nets' unpenalized optima under
// the same bans — the solution of L(0) — and stand in for its Steiner
// solves.
func (l *lagrangian) bound(ctxs []*steinerCtx, rounds int, routes [][]int32) int64 {
	for _, r := range l.activeArcs {
		l.lambdaArc[r] = 0
	}
	for _, v := range l.activeVerts {
		l.lambdaVert[v] = 0
	}
	l.activeArcs, l.activeVerts = l.activeArcs[:0], l.activeVerts[:0]
	best := int64(-1)
	for round := 0; round <= rounds; round++ {
		l.loadPenalties()
		l.resetUse()
		sum := int64(0)
		for k, ctx := range ctxs {
			var arcs []int32
			var cost int64
			if round == 0 && routes != nil {
				arcs = routes[k]
				for _, a := range arcs {
					cost += int64(l.g.Arcs[a].Cost)
				}
			} else {
				ctx.penalty = l.penalty
				var ok bool
				arcs, cost, ok = steinerTree(ctx)
				ctx.penalty = nil
				if !ok {
					return -2 // infeasible independent subproblem
				}
			}
			sum += cost
			l.nextNet()
			for _, a := range arcs {
				r := l.canonArc(a)
				if l.useArc[r] == 0 {
					l.usedArcs = append(l.usedArcs, r)
				}
				l.useArc[r]++
				to := l.g.Arcs[a].To
				if l.g.IsGrid(to) && l.seenV[to] != l.seenEpoch {
					l.seenV[to] = l.seenEpoch
					if l.useVert[to] == 0 {
						l.usedVerts = append(l.usedVerts, to)
					}
					l.useVert[to]++
				}
			}
		}
		lb := sum - l.totalLambda()
		if lb > best {
			best = lb
		}
		if round == rounds {
			break
		}
		l.activeArcs = step(l.lambdaArc, l.activeArcs, l.useArc, l.usedArcs)
		l.activeVerts = step(l.lambdaVert, l.activeVerts, l.useVert, l.usedVerts)
	}
	return best
}
