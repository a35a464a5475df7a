package drc

import (
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// grid builds a bare clip with two vertically-stacked nets for hand-made
// violation scenarios.
func grid(t *testing.T, rule tech.RuleConfig) *rgraph.Graph {
	t.Helper()
	c := &clip.Clip{
		Name: "drc", Tech: "t",
		NX: 4, NY: 5, NZ: 4, MinLayer: 1,
		Nets: []clip.Net{
			{Name: "a", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 0, Y: 3, Z: 1}}},
			}},
			{Name: "b", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 2, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 2, Y: 3, Z: 1}}},
			}},
		},
	}
	g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// findArc locates a directed arc between two grid vertices.
func findArc(t *testing.T, g *rgraph.Graph, fx, fy, fz, tx, ty, tz int) int32 {
	t.Helper()
	from := g.GridID(fx, fy, fz)
	to := g.GridID(tx, ty, tz)
	for _, aid := range g.Out[from] {
		if g.Arcs[aid].To == to {
			return aid
		}
	}
	t.Fatalf("no arc (%d,%d,%d)->(%d,%d,%d)", fx, fy, fz, tx, ty, tz)
	return -1
}

// path builds the arc list for consecutive vertices.
func path(t *testing.T, g *rgraph.Graph, pts ...[3]int) []int32 {
	t.Helper()
	var arcs []int32
	for i := 0; i+1 < len(pts); i++ {
		arcs = append(arcs, findArc(t, g,
			pts[i][0], pts[i][1], pts[i][2],
			pts[i+1][0], pts[i+1][1], pts[i+1][2]))
	}
	return arcs
}

// ofKind returns the violations of one kind.
func ofKind(vs []Violation, k Kind) []Violation {
	var out []Violation
	for _, v := range vs {
		if v.Kind == k {
			out = append(out, v)
		}
	}
	return out
}

// withTerminals prepends/appends the virtual arcs for net k's source and one
// sink so connectivity holds.
func withTerminals(t *testing.T, g *rgraph.Graph, k int, arcs []int32) []int32 {
	t.Helper()
	src := g.Source[k]
	var out []int32
	out = append(out, g.Out[src][0]) // supersource -> first AP
	out = append(out, arcs...)
	sink := g.SinkVerts[k][0]
	out = append(out, g.In[sink][0]) // last AP -> supersink
	return out
}

func TestCleanSolutionPasses(t *testing.T) {
	g := grid(t, tech.RuleConfig{})
	a := withTerminals(t, g, 0, path(t, g, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1}))
	b := withTerminals(t, g, 1, path(t, g, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1}))
	if v := Check(g, [][]int32{a, b}); len(v) != 0 {
		t.Fatalf("clean solution flagged: %v", v)
	}
}

func TestArcConflictDetected(t *testing.T) {
	g := grid(t, tech.RuleConfig{})
	shared := path(t, g, [3]int{1, 1, 1}, [3]int{1, 2, 1})
	a := append(withTerminals(t, g, 0, path(t, g, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1})), shared...)
	b := append(withTerminals(t, g, 1, path(t, g, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1})), shared...)
	found := false
	for _, v := range Check(g, [][]int32{a, b}) {
		if v.Kind == ArcConflict {
			found = true
		}
	}
	if !found {
		t.Fatal("shared arc not detected")
	}
}

func TestVertexConflictDetected(t *testing.T) {
	g := grid(t, tech.RuleConfig{})
	// Net a passes vertically through (1,1,1)..(1,2,1); net b uses a via at
	// (1,2,1)->(1,2,2): they share vertex (1,2,1) without sharing an arc.
	a := append(withTerminals(t, g, 0,
		path(t, g, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1})),
		path(t, g, [3]int{1, 1, 1}, [3]int{1, 2, 1})...)
	b := append(withTerminals(t, g, 1,
		path(t, g, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1})),
		path(t, g, [3]int{1, 2, 1}, [3]int{1, 2, 2})...)
	kinds := map[Kind]bool{}
	for _, v := range Check(g, [][]int32{a, b}) {
		kinds[v.Kind] = true
	}
	if !kinds[VertexConflict] {
		t.Fatal("vertex sharing not detected")
	}
}

func TestDisconnectedDetected(t *testing.T) {
	g := grid(t, tech.RuleConfig{})
	// Net a misses its path entirely.
	a := []int32{g.Out[g.Source[0]][0]}
	b := withTerminals(t, g, 1, path(t, g, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1}))
	found := false
	for _, v := range Check(g, [][]int32{a, b}) {
		if v.Kind == Disconnected {
			found = true
		}
	}
	if !found {
		t.Fatal("disconnection not detected")
	}
}

func TestViaAdjacencyDetected(t *testing.T) {
	rule6, _ := tech.RuleByName("RULE6")
	g := grid(t, rule6)
	// Net a: via at (0,1); net b: via at (1,1) — orthogonal neighbors on
	// the same cut layer.
	a := append(withTerminals(t, g, 0,
		path(t, g, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1})),
		path(t, g, [3]int{0, 1, 1}, [3]int{0, 1, 2})...)
	b := append(withTerminals(t, g, 1,
		path(t, g, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1})),
		path(t, g, [3]int{2, 1, 1}, [3]int{2, 1, 2}, [3]int{1, 1, 2}, [3]int{1, 1, 1})...)
	kinds := map[Kind]bool{}
	for _, v := range Check(g, [][]int32{a, b}) {
		kinds[v.Kind] = true
	}
	if !kinds[ViaAdjacency] {
		t.Fatalf("adjacent vias not detected; kinds=%v", kinds)
	}
	// Without the rule, the same layout is legal.
	g0 := grid(t, tech.RuleConfig{})
	a0 := append(withTerminals(t, g0, 0,
		path(t, g0, [3]int{0, 0, 1}, [3]int{0, 1, 1}, [3]int{0, 2, 1}, [3]int{0, 3, 1})),
		path(t, g0, [3]int{0, 1, 1}, [3]int{0, 1, 2})...)
	b0 := append(withTerminals(t, g0, 1,
		path(t, g0, [3]int{2, 0, 1}, [3]int{2, 1, 1}, [3]int{2, 2, 1}, [3]int{2, 3, 1})),
		path(t, g0, [3]int{2, 1, 1}, [3]int{2, 1, 2}, [3]int{1, 1, 2}, [3]int{1, 1, 1})...)
	for _, v := range Check(g0, [][]int32{a0, b0}) {
		if v.Kind == ViaAdjacency {
			t.Fatal("via adjacency flagged under RULE1")
		}
	}
}

func TestEOLExtraction(t *testing.T) {
	rule2 := tech.RuleConfig{SADPMinLayer: 2} // M2+ SADP
	g := grid(t, rule2)
	// Net a route with an EOL: wire along M3 (z=2, horizontal) ending at
	// (1,1,2) with a via down to (1,1,1).
	arcs := path(t, g, [3]int{0, 1, 2}, [3]int{1, 1, 2}, [3]int{1, 1, 1})
	eols := EOLs(g, [][]int32{arcs, nil})
	// Expect a lo-side EOL at (1,1,2): the wire comes from the lo (west)
	// side and terminates with a via.
	found := false
	for _, e := range eols {
		x, y, z := g.XYZ(e.V)
		if x == 1 && y == 1 && z == 2 && e.Side == 0 {
			found = true
			if e.WitnessVia < 0 || e.WitnessWire < 0 {
				t.Fatal("EOL witnesses missing")
			}
		}
	}
	if !found {
		t.Fatalf("expected EOL at (1,1,2) lo side; got %v", eols)
	}
}

func TestSADPConflictDetected(t *testing.T) {
	rule2 := tech.RuleConfig{SADPMinLayer: 2}
	g := grid(t, rule2)
	// Net a: EOL at (1,1,2) wire from west (lo), via down.
	a := path(t, g, [3]int{0, 1, 2}, [3]int{1, 1, 2}, [3]int{1, 1, 1})
	// Net b: facing EOL at (2,1,2): wire from east (hi side), via down.
	// Facing pair across one track: (1,1) hi-opening-lo at (2,1)... EOL at
	// (2,1,2) with wire on hi side, forbidden sites include (1,1,2) lo EOL.
	b := path(t, g, [3]int{3, 1, 2}, [3]int{2, 1, 2}, [3]int{2, 1, 1})
	viols := ofKind(Check(g, [][]int32{a, b}), SADPEOL)
	if len(viols) == 0 {
		t.Fatal("facing EOL pair not detected")
	}
	// Same geometry under RULE1 is silent.
	g1 := grid(t, tech.RuleConfig{})
	a1 := path(t, g1, [3]int{0, 1, 2}, [3]int{1, 1, 2}, [3]int{1, 1, 1})
	b1 := path(t, g1, [3]int{3, 1, 2}, [3]int{2, 1, 2}, [3]int{2, 1, 1})
	if v := ofKind(Check(g1, [][]int32{a1, b1}), SADPEOL); len(v) != 0 {
		t.Fatalf("SADP flagged without SADP layers: %v", v)
	}
}

func TestSADPDistantEOLsLegal(t *testing.T) {
	rule2 := tech.RuleConfig{SADPMinLayer: 2}
	g := grid(t, rule2)
	// EOLs far apart (different rows, >1 track apart in y): legal.
	a := path(t, g, [3]int{0, 0, 2}, [3]int{1, 0, 2}, [3]int{1, 0, 1})
	b := path(t, g, [3]int{3, 3, 2}, [3]int{2, 3, 2}, [3]int{2, 3, 1})
	if v := ofKind(Check(g, [][]int32{a, b}), SADPEOL); len(v) != 0 {
		t.Fatalf("distant EOLs flagged: %v", v)
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{ArcConflict, VertexConflict, Disconnected, ViaAdjacency, ViaShapeBlock, SADPEOL}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Errorf("Kind %d string %q", k, s)
		}
		seen[s] = true
	}
}
