package core

import (
	"fmt"
	"math"
	"time"

	"optrouter/internal/ilp"
	"optrouter/internal/lp"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
)

// ILPModel is the paper's Section 3 integer linear program for one routing
// graph: multi-commodity flow with Steiner (multi-pin) nets, arc and vertex
// capacities, via adjacency restrictions, via-shape blocking and SADP
// end-of-line rules.
type ILPModel struct {
	G     *rgraph.Graph
	Model *ilp.Model

	// EVar[k][a] is the variable index of e^k_a, or -1 when arc a is not
	// available to net k.
	EVar [][]int32
	// FVar[k][a] is the flow variable for multi-pin nets (else -1; for
	// two-pin nets e doubles as the unit flow).
	FVar [][]int32

	// superOwner[v] maps non-grid vertices to their owning net (or -1).
	superOwner []int32

	// Auxiliary-variable definitions, recorded so that EncodeSolution can
	// derive their values when warm-starting from a heuristic route.
	products []prodDef
	ors      []orDef
	siteUs   []siteUDef

	// Counts for the Section 4 model-size analysis.
	NumEVars, NumFVars, NumPVars, NumProductVars, NumSiteVars int
}

// prodDef records q = a * b for binaries.
type prodDef struct{ q, a, b int }

// orDef records p = OR(qs).
type orDef struct {
	p  int
	qs []int
}

// siteUDef records u = OR(es): site-usage indicator over arc variables.
type siteUDef struct {
	u  int
	es []int
}

// Allowed reports whether net k may use arc a: the arc must not touch
// another net's pin access points or another net's virtual terminals.
func (m *ILPModel) Allowed(k int, a int32) bool {
	arc := m.G.Arcs[a]
	for _, v := range []int32{arc.From, arc.To} {
		if m.G.IsGrid(v) {
			if owner := m.G.PinOwner[v]; owner >= 0 && owner != int32(k) {
				return false
			}
		} else if owner := m.superOwner[v-int32(m.G.NumGrid)]; owner >= 0 && owner != int32(k) {
			return false
		}
	}
	return true
}

// BuildILP assembles the complete ILP for the routing graph.
func BuildILP(g *rgraph.Graph) *ILPModel {
	nets := g.Clip.Nets
	m := &ILPModel{G: g, Model: ilp.NewModel()}

	// Ownership of non-grid vertices: -1 for via representative vertices,
	// net index for super terminals.
	m.superOwner = make([]int32, g.NumVerts-g.NumGrid)
	for i := range m.superOwner {
		m.superOwner[i] = -1
	}
	for k, s := range g.Source {
		m.superOwner[s-int32(g.NumGrid)] = int32(k)
	}
	for k, sinks := range g.SinkVerts {
		for _, t := range sinks {
			m.superOwner[t-int32(g.NumGrid)] = int32(k)
		}
	}

	// Variables: e (binary) and f (continuous, multi-pin nets only).
	m.EVar = make([][]int32, len(nets))
	m.FVar = make([][]int32, len(nets))
	for k := range nets {
		m.EVar[k] = make([]int32, len(g.Arcs))
		m.FVar[k] = make([]int32, len(g.Arcs))
		nT := nets[k].NumSinks()
		for a := range g.Arcs {
			m.EVar[k][a] = -1
			m.FVar[k][a] = -1
			if !m.Allowed(k, int32(a)) {
				continue
			}
			e := m.Model.AddBinary(float64(g.Arcs[a].Cost))
			m.EVar[k][a] = int32(e)
			m.NumEVars++
			if nT > 1 {
				f := m.Model.AddContinuous(0, float64(nT), 0)
				m.FVar[k][a] = int32(f)
				m.NumFVars++
			}
		}
	}

	m.addCapacityConstraints()
	m.addFlowConstraints()
	m.addVertexCapacity()
	m.addViaShapeConstraints()
	m.addViaAdjacency()
	m.addSADPConstraints()
	return m
}

// flowVar returns the variable carrying flow for net k on arc a (f for
// multi-pin nets, e for two-pin nets), or -1.
func (m *ILPModel) flowVar(k int, a int32) int32 {
	if f := m.FVar[k][a]; f >= 0 {
		return f
	}
	return m.EVar[k][a]
}

// addCapacityConstraints emits constraint (1): each undirected arc resource
// is used by at most one net (and one direction).
func (m *ILPModel) addCapacityConstraints() {
	g := m.G
	for a := 0; a < len(g.Arcs); a++ {
		b := g.Pair[a]
		if int32(a) > b {
			continue // one row per unordered pair
		}
		if g.Arcs[a].Kind == rgraph.Virtual {
			continue // single-net by construction
		}
		var cs []lp.Coef
		for k := range m.EVar {
			if e := m.EVar[k][a]; e >= 0 {
				cs = append(cs, lp.Coef{Var: int(e), Val: 1})
			}
			if e := m.EVar[k][b]; e >= 0 {
				cs = append(cs, lp.Coef{Var: int(e), Val: 1})
			}
		}
		if len(cs) > 1 {
			m.Model.AddConstraint(cs, lp.LE, 1)
		}
	}
}

// addFlowConstraints emits constraints (2)-(4): e/f coupling and flow
// conservation with supersource supply |T| and one unit per supersink.
func (m *ILPModel) addFlowConstraints() {
	g := m.G
	for k := range m.EVar {
		nT := g.Clip.Nets[k].NumSinks()
		// e/f coupling for multi-pin nets.
		if nT > 1 {
			for a := range g.Arcs {
				e, f := m.EVar[k][a], m.FVar[k][a]
				if e < 0 {
					continue
				}
				// (2) e >= f/|T|  <=>  |T| e - f >= 0
				m.Model.AddConstraint([]lp.Coef{{Var: int(e), Val: float64(nT)}, {Var: int(f), Val: -1}}, lp.GE, 0)
				// (3) e <= f
				m.Model.AddConstraint([]lp.Coef{{Var: int(e), Val: 1}, {Var: int(f), Val: -1}}, lp.LE, 0)
			}
		}
		// (4) conservation at every vertex the net can touch.
		sinkSet := map[int32]bool{}
		for _, t := range g.SinkVerts[k] {
			sinkSet[t] = true
		}
		for v := int32(0); v < int32(g.NumVerts); v++ {
			var cs []lp.Coef
			for _, aid := range g.Out[v] {
				if fv := m.flowVar(k, aid); fv >= 0 {
					cs = append(cs, lp.Coef{Var: int(fv), Val: 1})
				}
			}
			for _, aid := range g.In[v] {
				if fv := m.flowVar(k, aid); fv >= 0 {
					cs = append(cs, lp.Coef{Var: int(fv), Val: -1})
				}
			}
			if len(cs) == 0 {
				continue
			}
			rhs := 0.0
			switch {
			case v == g.Source[k]:
				rhs = float64(nT)
			case sinkSet[v]:
				rhs = -1
			}
			m.Model.AddConstraint(cs, lp.EQ, rhs)
		}
	}
}

// addVertexCapacity keeps grid vertices net-disjoint: at most one unit of
// costed "entering" arc usage per vertex across all nets. Optimal routings
// need at most one costed entry per vertex (a second one can always be
// rerouted through the first at no extra cost), so this does not exclude
// any optimum, while it forbids two nets sharing a metal point (e.g. a via
// landing on a wire of another net). Zero-cost entries — virtual terminal
// arcs and via-shape fan-out — are excluded; inter-net sharing through a
// via shape is covered by the footprint-blocking rows of constraint (5).
func (m *ILPModel) addVertexCapacity() {
	g := m.G
	for v := int32(0); v < int32(g.NumGrid); v++ {
		var cs []lp.Coef
		seen := map[int]bool{}
		for k := range m.EVar {
			for _, aid := range g.In[v] {
				kind := g.Arcs[aid].Kind
				if kind == rgraph.Virtual || kind == rgraph.ViaShapeOut {
					continue
				}
				if e := m.EVar[k][aid]; e >= 0 && !seen[int(e)] {
					seen[int(e)] = true
					cs = append(cs, lp.Coef{Var: int(e), Val: 1})
				}
			}
		}
		if len(cs) > 1 {
			m.Model.AddConstraint(cs, lp.LE, 1)
		}
	}
}

// addViaShapeConstraints emits constraint (5) for shaped vias: a site
// usage indicator per (site, net), exclusivity of the representative vertex,
// and blocking of footprint vertices against other nets.
func (m *ILPModel) addViaShapeConstraints() {
	g := m.G
	for si := range g.Sites {
		s := &g.Sites[si]
		if s.Rep < 0 {
			continue // 1x1 vias need no extra rows
		}
		// u[s][k] >= e for each of net k's site arcs; sum_k u <= 1.
		uVars := make([]int32, len(m.EVar))
		var sumU []lp.Coef
		for k := range m.EVar {
			uVars[k] = -1
			var any bool
			for _, aid := range s.Arcs {
				if m.EVar[k][aid] >= 0 {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			u := m.Model.AddBinary(0)
			m.NumSiteVars++
			uVars[k] = int32(u)
			sumU = append(sumU, lp.Coef{Var: u, Val: 1})
			ud := siteUDef{u: u}
			for _, aid := range s.Arcs {
				if e := m.EVar[k][aid]; e >= 0 {
					m.Model.AddConstraint([]lp.Coef{{Var: u, Val: 1}, {Var: int(e), Val: -1}}, lp.GE, 0)
					ud.es = append(ud.es, int(e))
				}
			}
			m.siteUs = append(m.siteUs, ud)
		}
		if len(sumU) > 1 {
			m.Model.AddConstraint(sumU, lp.LE, 1)
		}
		// Footprint blocking: if net k uses the site, no other net may
		// enter a footprint vertex through non-site arcs.
		siteArc := map[int32]bool{}
		for _, aid := range s.Arcs {
			siteArc[aid] = true
		}
		for _, fv := range s.Footprint {
			for k := range m.EVar {
				if uVars[k] < 0 {
					continue
				}
				for k2 := range m.EVar {
					if k2 == k {
						continue
					}
					var cs []lp.Coef
					for _, aid := range g.In[fv] {
						if siteArc[aid] {
							continue
						}
						if e := m.EVar[k2][aid]; e >= 0 {
							cs = append(cs, lp.Coef{Var: int(e), Val: 1})
						}
					}
					if len(cs) == 0 {
						continue
					}
					cs = append(cs, lp.Coef{Var: int(uVars[k]), Val: 1})
					m.Model.AddConstraint(cs, lp.LE, 1)
				}
			}
		}
	}
}

// siteUsage returns coefficients whose sum is 1 when the via site is in use.
func (m *ILPModel) siteUsage(si int) []lp.Coef {
	g := m.G
	s := &g.Sites[si]
	var cs []lp.Coef
	for k := range m.EVar {
		for _, aid := range s.Arcs {
			// For 1x1 sites both directions count; for shaped sites count
			// only arcs into the representative (the costed direction), so a
			// passing net contributes at least 1 and at most a few units.
			a := g.Arcs[aid]
			if s.Rep >= 0 && a.Kind != rgraph.ViaShapeIn {
				continue
			}
			if e := m.EVar[k][aid]; e >= 0 {
				cs = append(cs, lp.Coef{Var: int(e), Val: 1})
			}
		}
	}
	return cs
}

// addViaAdjacency forbids simultaneously occupying conflicting via sites
// (0/4/8 blocked neighbors per the rule configuration).
func (m *ILPModel) addViaAdjacency() {
	g := m.G
	for si := range g.Sites {
		for _, sj := range g.SiteAdj[si] {
			if int32(si) > sj {
				continue
			}
			cs := append(m.siteUsage(si), m.siteUsage(int(sj))...)
			if len(cs) > 1 {
				m.Model.AddConstraint(cs, lp.LE, 1)
			}
		}
	}
}

// addSADPConstraints emits constraints (6)-(12): per-net EOL indicator
// variables p with linearized products, and pairwise forbidden EOL
// placements per Fig. 5.
func (m *ILPModel) addSADPConstraints() {
	g := m.G
	if !g.Opt.Rule.HasSADP() {
		return
	}
	// pVar[v][0] = p_lo (wire on lo side), pVar[v][1] = p_hi, per net:
	// indexed pVar[k][v][side].
	type key struct {
		v    int32
		side int // 0 = lo, 1 = hi
	}
	pVars := make([]map[key]int32, len(m.EVar))

	for k := range m.EVar {
		pVars[k] = map[key]int32{}
		for v := int32(0); v < int32(g.NumGrid); v++ {
			_, _, z := g.XYZ(v)
			if !g.IsSADPLayer(z) || z < g.Clip.MinLayer || g.Blocked[v] {
				continue
			}
			for side := 0; side < 2; side++ {
				sa := g.Side[v]
				wireIn, wireOut := sa.LoIn, sa.LoOut
				if side == 1 {
					wireIn, wireOut = sa.HiIn, sa.HiOut
				}
				// Products: (wire-in x via-out) and (wire-out x via-in).
				var products []int
				addProduct := func(e1, e2 int32) {
					if e1 < 0 || e2 < 0 {
						return
					}
					v1, v2 := m.EVar[k][e1], m.EVar[k][e2]
					if v1 < 0 || v2 < 0 {
						return
					}
					q := m.Model.AddBinary(0)
					m.NumProductVars++
					// q = v1 * v2 via (8).
					m.Model.AddConstraint([]lp.Coef{{Var: q, Val: 1}, {Var: int(v1), Val: -1}}, lp.LE, 0)
					m.Model.AddConstraint([]lp.Coef{{Var: q, Val: 1}, {Var: int(v2), Val: -1}}, lp.LE, 0)
					m.Model.AddConstraint([]lp.Coef{
						{Var: q, Val: 1}, {Var: int(v1), Val: -1}, {Var: int(v2), Val: -1},
					}, lp.GE, -1)
					m.products = append(m.products, prodDef{q: q, a: int(v1), b: int(v2)})
					products = append(products, q)
				}
				for _, viaArc := range g.ViaArcsAt(v) {
					a := g.Arcs[viaArc]
					if a.From == v { // via-out
						addProduct(wireIn, viaArc)
					} else { // via-in
						addProduct(wireOut, viaArc)
					}
				}
				if len(products) == 0 {
					continue
				}
				p := m.Model.AddBinary(0)
				m.NumPVars++
				pVars[k][key{v, side}] = int32(p)
				var sum []lp.Coef
				for _, q := range products {
					// p >= q
					m.Model.AddConstraint([]lp.Coef{{Var: p, Val: 1}, {Var: q, Val: -1}}, lp.GE, 0)
					sum = append(sum, lp.Coef{Var: q, Val: 1})
				}
				// p <= sum of products
				sum = append(sum, lp.Coef{Var: p, Val: -1})
				m.Model.AddConstraint(sum, lp.GE, 0)
				m.ors = append(m.ors, orDef{p: p, qs: products})
			}
		}
	}

	// Global sums per (vertex, side).
	globalP := func(v int32, side int) []lp.Coef {
		var cs []lp.Coef
		for k := range pVars {
			if p, ok := pVars[k][key{v, side}]; ok {
				cs = append(cs, lp.Coef{Var: int(p), Val: 1})
			}
		}
		return cs
	}

	// Forbidden pairs (11)-(12), deduplicated.
	type pairKey struct {
		vA int32
		sA int
		vB int32
		sB int
	}
	emitted := map[pairKey]bool{}
	emit := func(vA int32, sA int, vB int32, sB int) {
		if vA > vB || (vA == vB && sA > sB) {
			vA, vB = vB, vA
			sA, sB = sB, sA
		}
		k := pairKey{vA, sA, vB, sB}
		if emitted[k] {
			return
		}
		emitted[k] = true
		a := globalP(vA, sA)
		b := globalP(vB, sB)
		if len(a) == 0 || len(b) == 0 {
			return
		}
		m.Model.AddConstraint(append(a, b...), lp.LE, 1)
	}
	for v := int32(0); v < int32(g.NumGrid); v++ {
		_, _, z := g.XYZ(v)
		if !g.IsSADPLayer(z) || z < g.Clip.MinLayer || g.Blocked[v] {
			continue
		}
		for side := 0; side < 2; side++ {
			hiWire := side == 1
			facing, sameDir := g.EOLNeighborSets(v, hiWire)
			opp := 1 - side
			for _, j := range facing {
				emit(v, side, j, opp)
			}
			for _, j := range sameDir {
				emit(v, side, j, side)
			}
		}
	}
}

// SolveILP builds and optimizes the full ILP for the graph, optionally warm
// started with a heuristic incumbent, and decodes the routing solution.
func SolveILP(g *rgraph.Graph, opt ilp.Options) (*Solution, error) {
	start := time.Now()
	// Identify the solve in traces: the MILP engine knows nothing about clips.
	opt.SpanAttrs = append(opt.SpanAttrs, obs.A("clip", g.Clip.Name))
	m := BuildILP(g)
	buildDur := time.Since(start)
	var seedDur time.Duration
	if opt.Incumbent == nil {
		seedStart := time.Now()
		if h := SolveHeuristic(g, HeuristicOptions{}); h.Feasible {
			if inc := m.EncodeSolution(h); inc != nil {
				opt.Incumbent = inc
			}
		}
		seedDur = time.Since(seedStart)
	}
	opt.IntegralObjective = true
	res := m.Model.Solve(opt)
	// The MILP engine's breakdown covers the solve; prepend the model build
	// and heuristic warm start so the phases still partition SolveILP's wall
	// time (decode is the only unattributed tail, and it is tiny).
	phases := res.Stats.Phases.Merge(obs.Breakdown{PhaseSetup: buildDur, PhaseSeed: seedDur})
	sol := &Solution{
		Runtime: time.Since(start), Nodes: res.Nodes, LPIters: res.LPIters,
		Stats: SolveStats{
			Nodes:      res.Stats.Nodes,
			MaxDepth:   res.Stats.MaxDepth,
			Incumbents: res.Stats.Incumbents,
			LPStats:    res.Stats.LPStats,

			ModelRows:   m.Model.NumConstraints(),
			ModelCols:   m.Model.NumVars(),
			ModelNNZ:    m.Model.Prob.NumNonzeros(),
			Elapsed:     time.Since(start),
			Termination: string(res.Stats.Termination),
			Phases:      phases,
			LPPhases:    res.Stats.LPPhases,
			BoundTrace:  ilpBoundTrace(res.Stats.BoundTrace),
		},
	}
	switch res.Status {
	case ilp.Infeasible:
		sol.Feasible = false
		sol.Proven = true
		return sol, nil
	case ilp.Limit:
		return sol, fmt.Errorf("core: ILP limit reached with no solution")
	case ilp.Feasible:
		sol.Proven = false
	case ilp.Optimal:
		sol.Proven = true
	}
	sol.Feasible = true
	sol.NetArcs = m.DecodeSolution(res.X)
	summarize(g, sol)
	return sol, nil
}

// ilpBoundTrace converts the MILP engine's float-valued convergence trace to
// the shared integer BoundSample form (-1 sentinels for "no bound yet" /
// "no incumbent yet"; rounding is exact since the objective is integral).
func ilpBoundTrace(pts []ilp.BoundPoint) []BoundSample {
	if len(pts) == 0 {
		return nil
	}
	out := make([]BoundSample, len(pts))
	for i, p := range pts {
		bound, inc := int64(-1), int64(-1)
		if !math.IsInf(p.Bound, -1) {
			bound = int64(math.Round(p.Bound))
		}
		if !math.IsInf(p.Incumbent, 1) {
			inc = int64(math.Round(p.Incumbent))
		}
		out[i] = BoundSample{
			ElapsedMS: float64(p.Elapsed.Microseconds()) / 1000.0,
			Nodes:     p.Nodes, Depth: p.Depth, Open: p.Open,
			Bound: bound, Incumbent: inc,
		}
	}
	return out
}

// DecodeSolution converts an ILP variable assignment to per-net arc lists.
func (m *ILPModel) DecodeSolution(x []float64) [][]int32 {
	out := make([][]int32, len(m.EVar))
	for k := range m.EVar {
		for a, e := range m.EVar[k] {
			if e >= 0 && x[e] > 0.5 {
				out[k] = append(out[k], int32(a))
			}
		}
	}
	return out
}

// EncodeSolution converts a routing solution into a full variable assignment
// usable as a warm-start incumbent. Returns nil if the solution uses an arc
// unavailable in this model or is otherwise not encodable (e.g. it violates
// the SADP product bookkeeping).
func (m *ILPModel) EncodeSolution(sol *Solution) []float64 {
	if sol == nil || !sol.Feasible {
		return nil
	}
	x := make([]float64, m.Model.NumVars())
	g := m.G
	for k, arcs := range sol.NetArcs {
		// Per-net flow: count units reaching each sink through arc usage.
		// Reconstruct flows by BFS from sinks back to source over used arcs.
		used := map[int32]bool{}
		for _, a := range arcs {
			if m.EVar[k][a] < 0 {
				return nil
			}
			x[m.EVar[k][a]] = 1
			used[a] = true
		}
		flow := map[int32]int{}
		// Push one unit along the unique used path from each sink to source
		// by reverse walk (the solution is a tree, so predecessors are
		// unique).
		pred := map[int32]int32{} // vertex -> used arc entering it
		for _, a := range arcs {
			pred[g.Arcs[a].To] = a
		}
		for _, t := range g.SinkVerts[k] {
			v := t
			for v != g.Source[k] {
				a, ok := pred[v]
				if !ok {
					return nil
				}
				flow[a]++
				if flow[a] > len(g.SinkVerts[k]) {
					return nil // cycle guard
				}
				v = g.Arcs[a].From
			}
		}
		for a, fl := range flow {
			if fv := m.FVar[k][a]; fv >= 0 {
				x[fv] = float64(fl)
			} else if fl > 1 {
				return nil
			}
		}
	}
	m.computeAux(x)
	if ok, _ := m.Model.CheckFeasible(x, 1e-6); !ok {
		return nil
	}
	return x
}

// computeAux derives site-usage, product and OR auxiliary variables from the
// e-variable assignment in x.
func (m *ILPModel) computeAux(x []float64) {
	for _, ud := range m.siteUs {
		v := 0.0
		for _, e := range ud.es {
			if x[e] > 0.5 {
				v = 1
				break
			}
		}
		x[ud.u] = v
	}
	for _, pd := range m.products {
		if x[pd.a] > 0.5 && x[pd.b] > 0.5 {
			x[pd.q] = 1
		} else {
			x[pd.q] = 0
		}
	}
	for _, od := range m.ors {
		v := 0.0
		for _, q := range od.qs {
			if x[q] > 0.5 {
				v = 1
				break
			}
		}
		x[od.p] = v
	}
}
