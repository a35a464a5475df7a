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
type lagrangian struct {
	g *rgraph.Graph
	// lambdaArc[canonical arc id] and lambdaVert[grid vertex] are the
	// current penalties; kept sparse.
	lambdaArc  map[int32]int64
	lambdaVert map[int32]int64
	penalty    []int64 // per-arc scratch, rebuilt per evaluation
}

func newLagrangian(g *rgraph.Graph) *lagrangian {
	return &lagrangian{
		g:          g,
		lambdaArc:  map[int32]int64{},
		lambdaVert: map[int32]int64{},
		penalty:    make([]int64, len(g.Arcs)),
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
	for _, v := range l.lambdaArc {
		t += v
	}
	for _, v := range l.lambdaVert {
		t += v
	}
	return t
}

// loadPenalties fills the per-arc scratch from the sparse maps.
func (l *lagrangian) loadPenalties() {
	for i := range l.penalty {
		l.penalty[i] = 0
	}
	for ca, v := range l.lambdaArc {
		l.penalty[ca] += v
		l.penalty[l.g.Pair[ca]] += v
	}
	for vert, v := range l.lambdaVert {
		for _, in := range l.g.In[vert] {
			l.penalty[in] += v
		}
	}
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
	clear(l.lambdaArc)
	clear(l.lambdaVert)
	best := int64(-1)
	for round := 0; round <= rounds; round++ {
		l.loadPenalties()
		sum := int64(0)
		useArc := map[int32]int{}
		useVert := map[int32]int{}
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
			seenV := map[int32]bool{}
			for _, a := range arcs {
				useArc[l.canonArc(a)]++
				to := l.g.Arcs[a].To
				if l.g.IsGrid(to) && !seenV[to] {
					seenV[to] = true
					useVert[to]++
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

		// Subgradient step: raise overused resources, decay slack ones.
		for r, n := range useArc {
			if n >= 2 {
				l.lambdaArc[r] += int64(n - 1)
			}
		}
		for r := range l.lambdaArc {
			if useArc[r] <= 1 {
				l.lambdaArc[r]--
				if l.lambdaArc[r] <= 0 {
					delete(l.lambdaArc, r)
				}
			}
		}
		for v, n := range useVert {
			if n >= 2 {
				l.lambdaVert[v] += int64(n - 1)
			}
		}
		for v := range l.lambdaVert {
			if useVert[v] <= 1 {
				l.lambdaVert[v]--
				if l.lambdaVert[v] <= 0 {
					delete(l.lambdaVert, v)
				}
			}
		}
	}
	return best
}
