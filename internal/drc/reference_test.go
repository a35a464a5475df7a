package drc

import (
	"sort"

	"optrouter/internal/rgraph"
)

// refCheck is the map-based design-rule checker the scratch-array Checker
// replaced, kept as the differential tests' oracle. It returns every
// violation in the canonical order.
func refCheck(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	out = append(out, refCheckArcCapacity(g, netArcs)...)
	out = append(out, refCheckVertexExclusivity(g, netArcs)...)
	out = append(out, refCheckConnectivity(g, netArcs)...)
	out = append(out, refCheckViaAdjacency(g, netArcs)...)
	out = append(out, refCheckViaShapes(g, netArcs)...)
	out = append(out, refCheckSADP(g, netArcs)...)
	refSortViolations(out)
	return out
}

// refSortViolations puts violations in a canonical total order. Several
// checkers discover violations by iterating maps, so without this the
// output order varies run to run — and the solver's strong branching is
// order-sensitive, which would make search traces (node counts, bans)
// nondeterministic even for serial solves.
func refSortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i], vs[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if c := refCmpInts(a.Nets, b.Nets); c != 0 {
			return c < 0
		}
		if c := refCmpInt32s(a.Verts, b.Verts); c != 0 {
			return c < 0
		}
		if c := refCmpInt32s(a.Arcs, b.Arcs); c != 0 {
			return c < 0
		}
		if c := refCmpInt32s(a.Sites, b.Sites); c != 0 {
			return c < 0
		}
		return a.String() < b.String() // the old Msg tie-break
	})
}

func refCmpInts(a, b []int) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func refCmpInt32s(a, b []int32) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return len(a) - len(b)
}

func refCheckArcCapacity(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	owner := map[int32]int{} // canonical (min of pair) arc id -> net
	for k, arcs := range netArcs {
		seenByNet := map[int32]bool{}
		for _, a := range arcs {
			c := a
			if p := g.Pair[a]; p < c {
				c = p
			}
			if prev, ok := owner[c]; ok && prev != k && !seenByNet[c] {
				out = append(out, Violation{
					Kind: ArcConflict, Nets: []int{prev, k}, Arcs: []int32{a},
				})
			}
			owner[c] = k
			seenByNet[c] = true
		}
	}
	return out
}

// refUsedVerts returns the grid/rep vertices each net touches.
func refUsedVerts(g *rgraph.Graph, netArcs [][]int32) []map[int32]bool {
	out := make([]map[int32]bool, len(netArcs))
	for k, arcs := range netArcs {
		out[k] = map[int32]bool{}
		for _, a := range arcs {
			arc := g.Arcs[a]
			for _, v := range []int32{arc.From, arc.To} {
				if g.IsGrid(v) || refIsRep(g, v) {
					out[k][v] = true
				}
			}
		}
	}
	return out
}

func refIsRep(g *rgraph.Graph, v int32) bool {
	if g.IsGrid(v) {
		return false
	}
	for k := range g.Source {
		if g.Source[k] == v {
			return false
		}
		for _, t := range g.SinkVerts[k] {
			if t == v {
				return false
			}
		}
	}
	return true
}

func refCheckVertexExclusivity(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	uv := refUsedVerts(g, netArcs)
	owner := map[int32]int{}
	for k := range uv {
		for v := range uv[k] {
			if prev, ok := owner[v]; ok && prev != k {
				out = append(out, Violation{
					Kind: VertexConflict, Nets: []int{prev, k}, Verts: []int32{v},
				})
				continue
			}
			owner[v] = k
		}
	}
	// Single-entry discipline: the ILP's vertex capacity requires each
	// grid vertex to be entered at most once through *costed* arcs, even by
	// its owning net. A second costed entry is never needed by an optimum
	// (reroute both flows through the cheaper entry and save the other
	// arc), while zero-cost entries (via-shape fan-out, virtual terminals)
	// can legitimately coincide with one and are excluded.
	for k, arcs := range netArcs {
		entries := map[int32][]int32{}
		for _, a := range arcs {
			arc := g.Arcs[a]
			if arc.Kind == rgraph.Virtual || arc.Kind == rgraph.ViaShapeOut {
				continue
			}
			to := arc.To
			if g.IsGrid(to) {
				entries[to] = append(entries[to], a)
			}
		}
		for v, ins := range entries {
			if len(ins) >= 2 {
				out = append(out, Violation{
					Kind: VertexConflict, Nets: []int{k, k}, Verts: []int32{v},
					Arcs: ins[:2],
				})
			}
		}
	}
	return out
}

func refCheckConnectivity(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	for k, arcs := range netArcs {
		adj := map[int32][]int32{}
		for _, a := range arcs {
			arc := g.Arcs[a]
			// Treat used arcs as undirected for reachability.
			adj[arc.From] = append(adj[arc.From], arc.To)
			adj[arc.To] = append(adj[arc.To], arc.From)
		}
		reach := map[int32]bool{}
		stack := []int32{g.Source[k]}
		reach[g.Source[k]] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if !reach[u] {
					reach[u] = true
					stack = append(stack, u)
				}
			}
		}
		for _, t := range g.SinkVerts[k] {
			if !reach[t] {
				out = append(out, Violation{
					Kind: Disconnected, Nets: []int{k}, Verts: []int32{t},
				})
			}
		}
	}
	return out
}

// refUsedSites returns occupied via sites with the nets occupying them.
func refUsedSites(g *rgraph.Graph, netArcs [][]int32) map[int32][]int {
	used := map[int32]map[int]bool{}
	for k, arcs := range netArcs {
		for _, a := range arcs {
			if s := g.Arcs[a].Site; s >= 0 {
				if used[s] == nil {
					used[s] = map[int]bool{}
				}
				used[s][k] = true
			}
		}
	}
	out := map[int32][]int{}
	for s, nets := range used {
		for k := range nets {
			out[s] = append(out[s], k)
		}
		sort.Ints(out[s]) // map-iteration order would leak into Violation.Nets
	}
	return out
}

func refCheckViaAdjacency(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	used := refUsedSites(g, netArcs)
	for s, netsA := range used {
		for _, o := range g.SiteAdj[s] {
			if o <= s {
				continue
			}
			if netsB, ok := used[o]; ok {
				out = append(out, Violation{
					Kind: ViaAdjacency, Nets: append(append([]int{}, netsA...), netsB...),
					Sites: []int32{s, o},
				})
			}
		}
	}
	return out
}

func refCheckViaShapes(g *rgraph.Graph, netArcs [][]int32) []Violation {
	var out []Violation
	used := refUsedSites(g, netArcs)
	uv := refUsedVerts(g, netArcs)
	for s, nets := range used {
		site := &g.Sites[s]
		if site.Rep < 0 {
			continue
		}
		siteArc := map[int32]bool{}
		for _, a := range site.Arcs {
			siteArc[a] = true
		}
		for _, fv := range site.Footprint {
			for k := range uv {
				if refContainsInt(nets, k) {
					continue
				}
				if !uv[k][fv] {
					continue
				}
				// Net k touches a footprint vertex through non-site arcs.
				touch := false
				for _, a := range netArcs[k] {
					if siteArc[a] {
						continue
					}
					arc := g.Arcs[a]
					if arc.From == fv || arc.To == fv {
						touch = true
						break
					}
				}
				if touch {
					out = append(out, Violation{
						Kind: ViaShapeBlock, Nets: append(append([]int{}, nets...), k),
						Verts: []int32{fv}, Sites: []int32{s},
					})
				}
			}
		}
	}
	return out
}

func refContainsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// refEOLs extracts every realized end-of-line feature (the paper's p
// semantics: wire on one side of a vertex combined with a via at the vertex,
// consistent with flow direction) on SADP layers.
func refEOLs(g *rgraph.Graph, netArcs [][]int32) []EOL {
	var out []EOL
	for k, arcs := range netArcs {
		used := map[int32]bool{}
		for _, a := range arcs {
			used[a] = true
		}
		emit := map[[2]int32]bool{} // (v, side) dedupe
		for _, a := range arcs {
			arc := g.Arcs[a]
			if arc.Kind != rgraph.Wire {
				continue
			}
			for _, v := range []int32{arc.From, arc.To} {
				_, _, z := g.XYZ(v)
				if !g.IsSADPLayer(z) {
					continue
				}
				sa := g.Side[v]
				for side := int32(0); side < 2; side++ {
					wireIn, wireOut := sa.LoIn, sa.LoOut
					if side == 1 {
						wireIn, wireOut = sa.HiIn, sa.HiOut
					}
					wWire, wVia := int32(-1), int32(-1)
					for _, va := range g.ViaArcsAt(v) {
						if !used[va] {
							continue
						}
						if g.Arcs[va].From == v && wireIn >= 0 && used[wireIn] {
							wWire, wVia = wireIn, va
						}
						if g.Arcs[va].To == v && wireOut >= 0 && used[wireOut] {
							wWire, wVia = wireOut, va
						}
					}
					if wVia >= 0 && !emit[[2]int32{v, side}] {
						emit[[2]int32{v, side}] = true
						out = append(out, EOL{Net: k, V: v, Side: int(side), WitnessWire: wWire, WitnessVia: wVia})
					}
				}
			}
		}
	}
	return out
}

// refCheckSADP validates SADP EOL spacing (constraints (11)-(12), Fig. 5).
func refCheckSADP(g *rgraph.Graph, netArcs [][]int32) []Violation {
	if !g.Opt.Rule.HasSADP() {
		return nil
	}
	eols := refEOLs(g, netArcs)
	bySpot := map[[2]int32][]EOL{}
	for _, e := range eols {
		key := [2]int32{e.V, int32(e.Side)}
		bySpot[key] = append(bySpot[key], e)
	}
	var out []Violation
	seen := map[[4]int32]bool{}
	report := func(a, b EOL) {
		k := [4]int32{a.V, int32(a.Side), b.V, int32(b.Side)}
		if a.V > b.V || (a.V == b.V && a.Side > b.Side) {
			k = [4]int32{b.V, int32(b.Side), a.V, int32(a.Side)}
		}
		if seen[k] {
			return
		}
		seen[k] = true
		out = append(out, Violation{
			Kind: SADPEOL, Nets: []int{a.Net, b.Net}, Verts: []int32{a.V, b.V},
			EOLs: []EOL{a, b},
		})
	}
	for _, e := range eols {
		facing, sameDir := g.EOLNeighborSets(e.V, e.Side == 1)
		opp := int32(1 - e.Side)
		for _, j := range facing {
			for _, o := range bySpot[[2]int32{j, opp}] {
				report(e, o)
			}
		}
		for _, j := range sameDir {
			for _, o := range bySpot[[2]int32{j, int32(e.Side)}] {
				report(e, o)
			}
		}
	}
	return out
}
