// Package drc is an independent design-rule checker for clip routing
// solutions. It re-derives violations directly from the used arcs, without
// trusting the solver's constraint bookkeeping, and is used both by tests
// (to validate OptRouter outputs) and by the negotiated-congestion heuristic
// router (to find conflicts to penalize).
//
// Checked rules: arc capacity (one net per track segment), vertex
// exclusivity (no shorts), per-net connectivity, via adjacency (4/8 blocked
// neighbor sites), via-shape footprint blocking, and SADP end-of-line
// spacing per the paper's Fig. 5.
package drc

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"optrouter/internal/rgraph"
)

// Kind classifies a violation.
type Kind int

const (
	// ArcConflict: an undirected arc resource used by more than one net.
	ArcConflict Kind = iota
	// VertexConflict: a grid or via vertex touched by more than one net.
	VertexConflict
	// Disconnected: a net's used arcs do not connect source to all sinks.
	Disconnected
	// ViaAdjacency: two occupied via sites conflict under the rule config.
	ViaAdjacency
	// ViaShapeBlock: a net enters the footprint of another net's shaped via.
	ViaShapeBlock
	// SADPEOL: two end-of-line features violate the SADP spacing rules.
	SADPEOL
)

func (k Kind) String() string {
	switch k {
	case ArcConflict:
		return "arc-conflict"
	case VertexConflict:
		return "vertex-conflict"
	case Disconnected:
		return "disconnected"
	case ViaAdjacency:
		return "via-adjacency"
	case ViaShapeBlock:
		return "via-shape-block"
	case SADPEOL:
		return "sadp-eol"
	}
	return "?"
}

// Violation describes one design-rule violation.
type Violation struct {
	Kind  Kind
	Nets  []int   // involved net indices
	Verts []int32 // involved vertices (graph ids)
	Arcs  []int32 // involved arcs
	Sites []int32 // involved via sites
	// EOLs carries the two conflicting end-of-line features for SADPEOL
	// violations (with product witness arcs for branching).
	EOLs []EOL
}

// String describes the violation. The message is derived from the fields on
// demand, so checking formats nothing.
func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Kind, v.msg()) }

func (v Violation) msg() string {
	switch {
	case v.Kind == ArcConflict && len(v.Arcs) > 0 && len(v.Nets) > 1:
		return fmt.Sprintf("arc %d shared by nets %d and %d", v.Arcs[0], v.Nets[0], v.Nets[1])
	case v.Kind == VertexConflict && len(v.Verts) > 0 && len(v.Nets) > 1 && v.Nets[0] == v.Nets[1]:
		return fmt.Sprintf("net %d enters vertex %d twice", v.Nets[0], v.Verts[0])
	case v.Kind == VertexConflict && len(v.Verts) > 0 && len(v.Nets) > 1:
		return fmt.Sprintf("vertex %d shared by nets %d and %d", v.Verts[0], v.Nets[0], v.Nets[1])
	case v.Kind == Disconnected && len(v.Verts) > 0 && len(v.Nets) > 0:
		return fmt.Sprintf("net %d: sink vertex %d unreachable from source", v.Nets[0], v.Verts[0])
	case v.Kind == ViaAdjacency && len(v.Sites) > 1:
		return fmt.Sprintf("via sites %d and %d are adjacent", v.Sites[0], v.Sites[1])
	case v.Kind == ViaShapeBlock && len(v.Verts) > 0 && len(v.Sites) > 0 && len(v.Nets) > 0:
		return fmt.Sprintf("net %d enters footprint vertex %d of used via site %d",
			v.Nets[len(v.Nets)-1], v.Verts[0], v.Sites[0])
	case v.Kind == SADPEOL && len(v.EOLs) > 1:
		a, b := v.EOLs[0], v.EOLs[1]
		return fmt.Sprintf("EOL at v%d/side%d conflicts with EOL at v%d/side%d", a.V, a.Side, b.V, b.Side)
	}
	return "malformed"
}

// EOL is a realized end-of-line feature of one net: a wire on `side`
// terminating at vertex V with a via (the paper's p variables; side 0 = lo
// i.e. p_l, side 1 = hi i.e. p_r). WitnessWire and WitnessVia are the
// directed arcs realizing the product (6)/(7); conflict-driven branching
// uses them to derive forbiddances.
type EOL struct {
	Net  int
	V    int32
	Side int // 0: wire on lo side (p_l), 1: wire on hi side (p_r)

	WitnessWire int32
	WitnessVia  int32
}

// Check validates a per-net arc assignment against all rules and returns
// every violation found (empty means DRC-clean), in the canonical order of
// compareViolations. It runs a fresh Checker; callers that check many
// routings of one graph keep a Checker instead.
func Check(g *rgraph.Graph, netArcs [][]int32) []Violation {
	return NewChecker(g).Check(netArcs)
}

// EOLs extracts every realized end-of-line feature (the paper's p
// semantics: wire on one side of a vertex combined with a via at the vertex,
// consistent with flow direction) on SADP layers.
func EOLs(g *rgraph.Graph, netArcs [][]int32) []EOL {
	c := NewChecker(g)
	c.reserve(len(netArcs))
	c.extractEOLs(netArcs)
	return slices.Clone(c.eols)
}

// Checker checks routings of one graph. It keeps its working sets —
// resource owners, the vertices each net touches, costed vertex entries,
// union-find forests, occupied via sites, used arcs and EOL spots — in flat
// per-graph arrays tagged with stamps, so a set is emptied by drawing a new
// stamp and a check allocates nothing once the arrays have grown. It also
// precomputes what the checks would otherwise rederive per arc: which
// vertices are shaped-via representatives, which layers are SADP, and each
// EOL spot's neighbor sets. A Checker is not safe for concurrent use.
type Checker struct {
	g  *rgraph.Graph
	nV int

	rep    []bool // per vertex: a shaped-via representative
	sadp   []bool // per layer: SADP-patterned
	nbrSet []bool // per EOL spot (2v+side): nbr is filled
	nbr    []eolNeighbors

	// tick issues stamps; every array below holds, per entry, the stamp of
	// the set the entry was last added to.
	tick       uint32
	arcStamp   []uint32 // canonical arc -> arcOwner valid
	arcOwner   []int32
	vertStamp  []uint32 // vertex -> vertOwner valid
	vertOwner  []int32
	netVert    []uint32 // net*nV + vertex: the net touches the vertex
	entryStamp []uint32 // vertex -> the current net's costed entries
	entryArc   []int32  // first entering arc
	entryCnt   []int32
	ufStamp    []uint32 // vertex -> ufParent valid (else a root)
	ufParent   []int32
	siteStamp  []uint32 // via site -> occupied; siteNets valid
	siteNets   [][]int  // occupying nets, ascending
	sites      []int32  // occupied sites in discovery order
	arcUsed    []uint32 // arc -> used by the current net
	emitStamp  []uint32 // EOL spot -> emitted for the current net
	spotStamp  []uint32 // EOL spot -> spotHead valid
	spotHead   []int32  // first EOL at the spot (index into eols)
	spotTail   []int32
	eolNext    []int32 // next EOL at the same spot, -1 at the end
	eols       []EOL
	sadpKeys   [][4]int32 // reported EOL pairs, canonical

	// The returned violations and their slices; reused by the next check.
	out    []Violation
	ints   []int
	int32s []int32
	eolBuf []EOL
}

// eolNeighbors holds rgraph.EOLNeighborSets of one spot (at most five
// vertices each).
type eolNeighbors struct {
	facing, sameDir [5]int32
	nf, ns          uint8
}

// NewChecker returns a checker for routings of g.
func NewChecker(g *rgraph.Graph) *Checker {
	nV, nA, nS := g.NumVerts, len(g.Arcs), len(g.Sites)
	spots := 2 * g.NumGrid
	c := &Checker{
		g: g, nV: nV,
		rep:        make([]bool, nV),
		sadp:       make([]bool, g.NZ),
		nbrSet:     make([]bool, spots),
		nbr:        make([]eolNeighbors, spots),
		arcStamp:   make([]uint32, nA),
		arcOwner:   make([]int32, nA),
		vertStamp:  make([]uint32, nV),
		vertOwner:  make([]int32, nV),
		entryStamp: make([]uint32, nV),
		entryArc:   make([]int32, nV),
		entryCnt:   make([]int32, nV),
		ufStamp:    make([]uint32, nV),
		ufParent:   make([]int32, nV),
		siteStamp:  make([]uint32, nS),
		siteNets:   make([][]int, nS),
		arcUsed:    make([]uint32, nA),
		emitStamp:  make([]uint32, spots),
		spotStamp:  make([]uint32, spots),
		spotHead:   make([]int32, spots),
		spotTail:   make([]int32, spots),
	}
	for v := g.NumGrid; v < nV; v++ {
		c.rep[v] = true
	}
	for k, s := range g.Source {
		c.rep[s] = false
		for _, t := range g.SinkVerts[k] {
			c.rep[t] = false
		}
	}
	for z := range c.sadp {
		c.sadp[z] = g.IsSADPLayer(z)
	}
	return c
}

// next draws a fresh stamp.
func (c *Checker) next() uint32 {
	c.tick++
	return c.tick
}

// reserve makes room for a check of nNets nets, which draws 4*nNets+5
// stamps at most: when the counter could wrap during the check, every stamp
// array is cleared and the counter restarts, so no stale entry can match a
// reissued stamp.
func (c *Checker) reserve(nNets int) {
	if c.tick <= math.MaxUint32-uint32(4*nNets+5) {
		return
	}
	for _, s := range [][]uint32{c.arcStamp, c.vertStamp, c.netVert, c.entryStamp,
		c.ufStamp, c.siteStamp, c.arcUsed, c.emitStamp, c.spotStamp} {
		clear(s)
	}
	c.tick = 0
}

// Check validates a per-net arc assignment against all rules and returns
// every violation found, in the canonical order of compareViolations. The
// violations and their slices are owned by the Checker and valid until its
// next Check.
func (c *Checker) Check(netArcs [][]int32) []Violation {
	c.out, c.ints, c.int32s, c.eolBuf = c.out[:0], c.ints[:0], c.int32s[:0], c.eolBuf[:0]
	if n := len(netArcs) * c.nV; len(c.netVert) < n {
		c.netVert = make([]uint32, n)
	}
	c.reserve(len(netArcs))
	c.checkArcCapacity(netArcs)
	touched := c.checkVertices(netArcs)
	c.checkConnectivity(netArcs)
	occupied := c.occupySites(netArcs)
	c.checkViaAdjacency(occupied)
	c.checkViaShapes(netArcs, occupied, touched)
	if c.g.Opt.Rule.HasSADP() {
		c.checkSADP(netArcs)
	}
	slices.SortStableFunc(c.out, compareViolations)
	return c.out
}

// compareViolations is the canonical total order of a check's violations.
// Strong branching reads violations in this order, so it must not depend on
// how a checker discovers them.
func compareViolations(a, b Violation) int {
	if a.Kind != b.Kind {
		return cmp.Compare(a.Kind, b.Kind)
	}
	if c := slices.Compare(a.Nets, b.Nets); c != 0 {
		return c
	}
	if c := slices.Compare(a.Verts, b.Verts); c != 0 {
		return c
	}
	if c := slices.Compare(a.Arcs, b.Arcs); c != 0 {
		return c
	}
	if c := slices.Compare(a.Sites, b.Sites); c != 0 {
		return c
	}
	// Two EOL pairs on the same vertices differ in their sides.
	if a.Kind == SADPEOL && len(a.EOLs) == 2 && len(b.EOLs) == 2 {
		if c := cmp.Compare(a.EOLs[0].Side, b.EOLs[0].Side); c != 0 {
			return c
		}
		return cmp.Compare(a.EOLs[1].Side, b.EOLs[1].Side)
	}
	return 0
}

// nets, verts and arcs carve a violation's slices out of the output buffers.
func (c *Checker) nets(ks ...int) []int {
	n := len(c.ints)
	c.ints = append(c.ints, ks...)
	return c.ints[n:len(c.ints):len(c.ints)]
}

func (c *Checker) int32List(xs ...int32) []int32 {
	n := len(c.int32s)
	c.int32s = append(c.int32s, xs...)
	return c.int32s[n:len(c.int32s):len(c.int32s)]
}

// checkArcCapacity flags an undirected arc resource entered by a second net.
// The resource's owner is the last net that used it.
func (c *Checker) checkArcCapacity(netArcs [][]int32) {
	g := c.g
	t := c.next()
	for k, arcs := range netArcs {
		for _, a := range arcs {
			r := min(a, g.Pair[a])
			if c.arcStamp[r] == t && c.arcOwner[r] != int32(k) {
				c.out = append(c.out, Violation{
					Kind: ArcConflict, Nets: c.nets(int(c.arcOwner[r]), k), Arcs: c.int32List(a),
				})
			}
			c.arcStamp[r], c.arcOwner[r] = t, int32(k)
		}
	}
}

// checkVertices flags a grid or representative vertex touched by a net
// other than the first one that touched it, and a grid vertex one net
// enters twice through costed arcs. Single-entry discipline: the ILP's
// vertex capacity requires each grid vertex to be entered at most once
// through *costed* arcs, even by its owning net. A second costed entry is
// never needed by an optimum (reroute both flows through the cheaper entry
// and save the other arc), while zero-cost entries (via-shape fan-out,
// virtual terminals) can legitimately coincide with one and are excluded. It
// returns the stamp of the touched-vertex marks in netVert.
func (c *Checker) checkVertices(netArcs [][]int32) uint32 {
	g := c.g
	touched := c.next()
	owned := c.next()
	for k, arcs := range netArcs {
		row := c.netVert[k*c.nV : (k+1)*c.nV]
		entries := c.next()
		for _, a := range arcs {
			arc := &g.Arcs[a]
			for _, v := range [2]int32{arc.From, arc.To} {
				if (!g.IsGrid(v) && !c.rep[v]) || row[v] == touched {
					continue
				}
				row[v] = touched
				if c.vertStamp[v] == owned {
					c.out = append(c.out, Violation{
						Kind: VertexConflict, Nets: c.nets(int(c.vertOwner[v]), k), Verts: c.int32List(v),
					})
					continue
				}
				c.vertStamp[v], c.vertOwner[v] = owned, int32(k)
			}
			if arc.Kind == rgraph.Virtual || arc.Kind == rgraph.ViaShapeOut || !g.IsGrid(arc.To) {
				continue
			}
			to := arc.To
			if c.entryStamp[to] != entries {
				c.entryStamp[to], c.entryArc[to], c.entryCnt[to] = entries, a, 1
				continue
			}
			c.entryCnt[to]++
			if c.entryCnt[to] == 2 {
				c.out = append(c.out, Violation{
					Kind: VertexConflict, Nets: c.nets(k, k), Verts: c.int32List(to),
					Arcs: c.int32List(c.entryArc[to], a),
				})
			}
		}
	}
	return touched
}

// checkConnectivity flags each sink that the net's used arcs, taken as
// undirected edges, do not connect to its source.
func (c *Checker) checkConnectivity(netArcs [][]int32) {
	g := c.g
	for k, arcs := range netArcs {
		forest := c.next()
		for _, a := range arcs {
			ra, rb := c.find(forest, g.Arcs[a].From), c.find(forest, g.Arcs[a].To)
			if ra != rb {
				c.ufStamp[ra], c.ufParent[ra] = forest, rb
			}
		}
		root := c.find(forest, g.Source[k])
		for _, t := range g.SinkVerts[k] {
			if c.find(forest, t) != root {
				c.out = append(c.out, Violation{Kind: Disconnected, Nets: c.nets(k), Verts: c.int32List(t)})
			}
		}
	}
}

// find returns v's union-find root in the forest stamped forest, halving
// the path on the way.
func (c *Checker) find(forest uint32, v int32) int32 {
	for c.ufStamp[v] == forest {
		p := c.ufParent[v]
		if c.ufStamp[p] == forest {
			c.ufParent[v] = c.ufParent[p]
		}
		v = p
	}
	return v
}

// occupySites records the occupied via sites with their nets in ascending
// order, and returns the stamp that marks them.
func (c *Checker) occupySites(netArcs [][]int32) uint32 {
	t := c.next()
	c.sites = c.sites[:0]
	for k, arcs := range netArcs {
		for _, a := range arcs {
			s := c.g.Arcs[a].Site
			if s < 0 {
				continue
			}
			if c.siteStamp[s] != t {
				c.siteStamp[s] = t
				c.siteNets[s] = c.siteNets[s][:0]
				c.sites = append(c.sites, s)
			}
			if nets := c.siteNets[s]; len(nets) == 0 || nets[len(nets)-1] != k {
				c.siteNets[s] = append(nets, k)
			}
		}
	}
	return t
}

// checkViaAdjacency flags occupied via sites that conflict under the rule.
func (c *Checker) checkViaAdjacency(occupied uint32) {
	for _, s := range c.sites {
		for _, o := range c.g.SiteAdj[s] {
			if o <= s || c.siteStamp[o] != occupied {
				continue
			}
			n := len(c.ints)
			c.ints = append(append(c.ints, c.siteNets[s]...), c.siteNets[o]...)
			c.out = append(c.out, Violation{
				Kind: ViaAdjacency, Nets: c.ints[n:len(c.ints):len(c.ints)], Sites: c.int32List(s, o),
			})
		}
	}
}

// checkViaShapes flags a net that touches a footprint vertex of a shaped via
// another net occupies, through an arc that is not one of the site's own.
func (c *Checker) checkViaShapes(netArcs [][]int32, occupied, touched uint32) {
	g := c.g
	for _, s := range c.sites {
		site := &g.Sites[s]
		if site.Rep < 0 {
			continue
		}
		nets := c.siteNets[s]
		for _, fv := range site.Footprint {
			for k := range netArcs {
				if slices.Contains(nets, k) || c.netVert[k*c.nV+int(fv)] != touched {
					continue
				}
				touch := false
				for _, a := range netArcs[k] {
					arc := &g.Arcs[a]
					if (arc.From == fv || arc.To == fv) && !slices.Contains(site.Arcs, a) {
						touch = true
						break
					}
				}
				if touch {
					n := len(c.ints)
					c.ints = append(append(c.ints, nets...), k)
					c.out = append(c.out, Violation{
						Kind: ViaShapeBlock, Nets: c.ints[n:len(c.ints):len(c.ints)],
						Verts: c.int32List(fv), Sites: c.int32List(s),
					})
				}
			}
		}
	}
}

// sadpVertex reports whether v lies on an SADP layer.
func (c *Checker) sadpVertex(v int32) bool {
	_, _, z := c.g.XYZ(v)
	if z < len(c.sadp) {
		return c.sadp[z]
	}
	return c.g.IsSADPLayer(z)
}

// extractEOLs fills c.eols with every realized end-of-line feature, net by
// net in arc order, once per (net, vertex, side).
func (c *Checker) extractEOLs(netArcs [][]int32) {
	g := c.g
	c.eols = c.eols[:0]
	for k, arcs := range netArcs {
		used := c.next()
		for _, a := range arcs {
			c.arcUsed[a] = used
		}
		emitted := c.next()
		for _, a := range arcs {
			arc := &g.Arcs[a]
			if arc.Kind != rgraph.Wire {
				continue
			}
			for _, v := range [2]int32{arc.From, arc.To} {
				if !c.sadpVertex(v) {
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
						if c.arcUsed[va] != used {
							continue
						}
						if g.Arcs[va].From == v && wireIn >= 0 && c.arcUsed[wireIn] == used {
							wWire, wVia = wireIn, va
						}
						if g.Arcs[va].To == v && wireOut >= 0 && c.arcUsed[wireOut] == used {
							wWire, wVia = wireOut, va
						}
					}
					if spot := 2*v + side; wVia >= 0 && c.emitStamp[spot] != emitted {
						c.emitStamp[spot] = emitted
						c.eols = append(c.eols, EOL{Net: k, V: v, Side: int(side), WitnessWire: wWire, WitnessVia: wVia})
					}
				}
			}
		}
	}
}

// neighbors returns the EOL neighbor sets of a spot, computing them on
// first use.
func (c *Checker) neighbors(v int32, side int) *eolNeighbors {
	spot := 2*int(v) + side
	nb := &c.nbr[spot]
	if !c.nbrSet[spot] {
		facing, sameDir := c.g.EOLNeighborSets(v, side == 1)
		nb.nf = uint8(copy(nb.facing[:], facing))
		nb.ns = uint8(copy(nb.sameDir[:], sameDir))
		c.nbrSet[spot] = true
	}
	return nb
}

// checkSADP validates SADP EOL spacing (constraints (11)-(12), Fig. 5): each
// EOL against the EOLs at its facing and same-direction neighbor spots, each
// unordered spot pair reported once.
func (c *Checker) checkSADP(netArcs [][]int32) {
	c.extractEOLs(netArcs)
	listed := c.next()
	c.eolNext = c.eolNext[:0]
	for i, e := range c.eols {
		spot := 2*e.V + int32(e.Side)
		c.eolNext = append(c.eolNext, -1)
		if c.spotStamp[spot] != listed {
			c.spotStamp[spot], c.spotHead[spot] = listed, int32(i)
		} else {
			c.eolNext[c.spotTail[spot]] = int32(i)
		}
		c.spotTail[spot] = int32(i)
	}
	c.sadpKeys = c.sadpKeys[:0]
	for _, e := range c.eols {
		nb := c.neighbors(e.V, e.Side)
		for _, j := range nb.facing[:nb.nf] {
			c.reportSpot(e, 2*j+1-int32(e.Side), listed)
		}
		for _, j := range nb.sameDir[:nb.ns] {
			c.reportSpot(e, 2*j+int32(e.Side), listed)
		}
	}
}

// reportSpot reports e against every EOL at spot, skipping spot pairs
// already reported.
func (c *Checker) reportSpot(e EOL, spot int32, listed uint32) {
	if c.spotStamp[spot] != listed {
		return
	}
	for i := c.spotHead[spot]; i >= 0; i = c.eolNext[i] {
		o := c.eols[i]
		key := [4]int32{e.V, int32(e.Side), o.V, int32(o.Side)}
		if e.V > o.V || (e.V == o.V && e.Side > o.Side) {
			key = [4]int32{o.V, int32(o.Side), e.V, int32(e.Side)}
		}
		if slices.Contains(c.sadpKeys, key) {
			continue
		}
		c.sadpKeys = append(c.sadpKeys, key)
		n := len(c.eolBuf)
		c.eolBuf = append(c.eolBuf, e, o)
		c.out = append(c.out, Violation{
			Kind: SADPEOL, Nets: c.nets(e.Net, o.Net), Verts: c.int32List(e.V, o.V),
			EOLs: c.eolBuf[n:len(c.eolBuf):len(c.eolBuf)],
		})
	}
}
