package drc

import (
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// shapeGraph builds a clip with two nets and bar vias enabled.
func shapeGraph(t *testing.T) *rgraph.Graph {
	t.Helper()
	c := &clip.Clip{
		Name: "vs", Tech: "t",
		NX: 4, NY: 4, NZ: 3, MinLayer: 1,
		Nets: []clip.Net{
			{Name: "a", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 3, Y: 3, Z: 1}}},
			}},
			{Name: "b", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 3, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 0, Y: 3, Z: 1}}},
			}},
		},
	}
	g, err := rgraph.Build(c, rgraph.Options{
		ViaShapes: []tech.ViaShape{tech.SingleVia, tech.VBarVia},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// findShapedSite returns a bar-via site anchored at (x, y) on cut zc.
func findShapedSite(t *testing.T, g *rgraph.Graph, x, y, zc int) int32 {
	t.Helper()
	for i := range g.Sites {
		s := &g.Sites[i]
		if s.Rep >= 0 && s.X == x && s.Y == y && s.ZCut == zc {
			return int32(i)
		}
	}
	t.Fatalf("no shaped site at (%d,%d,%d)", x, y, zc)
	return -1
}

func TestViaShapeBlockDetected(t *testing.T) {
	g := shapeGraph(t)
	// Net a uses the bar via anchored at (1,1) cut 1 (covers (1,1) and
	// (1,2) on M2 and M3): pick its arcs entering from (1,1,z1) and leaving
	// to (1,2,z2).
	site := findShapedSite(t, g, 1, 1, 1)
	s := &g.Sites[site]
	var inArc, outArc int32 = -1, -1
	for _, aid := range s.Arcs {
		arc := g.Arcs[aid]
		if arc.Kind == rgraph.ViaShapeIn && arc.From == g.GridID(1, 1, 1) {
			inArc = aid
		}
		if arc.Kind == rgraph.ViaShapeOut && arc.To == g.GridID(1, 2, 2) {
			outArc = aid
		}
	}
	if inArc < 0 || outArc < 0 {
		t.Fatal("bar via arcs not found")
	}
	aArcs := []int32{inArc, outArc}

	// Net b walks through footprint vertex (1,2,z1) with plain wires.
	bArcs := []int32{}
	from := g.GridID(1, 1, 1)
	to := g.GridID(1, 2, 1)
	for _, aid := range g.Out[from] {
		if g.Arcs[aid].To == to && g.Arcs[aid].Kind == rgraph.Wire {
			bArcs = append(bArcs, aid)
		}
	}
	if len(bArcs) == 0 {
		t.Fatal("wire arc through footprint not found")
	}

	kinds := map[Kind]bool{}
	for _, v := range Check(g, [][]int32{aArcs, bArcs}) {
		kinds[v.Kind] = true
	}
	if !kinds[ViaShapeBlock] && !kinds[VertexConflict] {
		t.Fatalf("footprint intrusion undetected; kinds=%v", kinds)
	}
}

func TestViaShapeOwnNetMayTouchFootprint(t *testing.T) {
	g := shapeGraph(t)
	site := findShapedSite(t, g, 1, 1, 1)
	s := &g.Sites[site]
	// Net a approaches (1,1,z1) by wire, enters the bar via, exits at
	// (1,2,z2): its own footprint contact must NOT be a via-shape-block.
	var inArc, outArc int32 = -1, -1
	for _, aid := range s.Arcs {
		arc := g.Arcs[aid]
		if arc.Kind == rgraph.ViaShapeIn && arc.From == g.GridID(1, 1, 1) {
			inArc = aid
		}
		if arc.Kind == rgraph.ViaShapeOut && arc.To == g.GridID(1, 2, 2) {
			outArc = aid
		}
	}
	var approach int32 = -1
	for _, aid := range g.In[g.GridID(1, 1, 1)] {
		if g.Arcs[aid].Kind == rgraph.Wire {
			approach = aid
			break
		}
	}
	if approach < 0 {
		t.Fatal("no wire approach")
	}
	for _, v := range ofKind(Check(g, [][]int32{{approach, inArc, outArc}, nil}), SADPEOL) {
		t.Fatalf("unexpected SADP violation: %v", v)
	}
	for _, v := range ofKind(Check(g, [][]int32{{approach, inArc, outArc}, nil}), ViaShapeBlock) {
		t.Fatalf("own-net footprint touch flagged: %v", v)
	}
}

func TestUsedSites(t *testing.T) {
	g := shapeGraph(t)
	site := findShapedSite(t, g, 0, 0, 1)
	s := &g.Sites[site]
	c := NewChecker(g)
	routes := [][]int32{{s.Arcs[0]}, nil}
	occupied := c.occupySites(routes)
	if len(c.sites) != 1 || c.sites[0] != site || c.siteStamp[site] != occupied {
		t.Fatalf("occupied sites = %v, want [%d]", c.sites, site)
	}
	if nets := c.siteNets[site]; len(nets) != 1 || nets[0] != 0 {
		t.Fatalf("site attribution wrong: %v", nets)
	}
	if ref := refUsedSites(g, routes); len(ref) != 1 || len(ref[site]) != 1 || ref[site][0] != 0 {
		t.Fatalf("reference site attribution wrong: %v", ref)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: ArcConflict, Nets: []int{0, 2}, Arcs: []int32{7}}
	if v.String() != "arc-conflict: arc 7 shared by nets 0 and 2" {
		t.Fatalf("String = %q", v.String())
	}
	if s := (Violation{Kind: SADPEOL}).String(); s != "sadp-eol: malformed" {
		t.Fatalf("String of an incomplete violation = %q", s)
	}
}
