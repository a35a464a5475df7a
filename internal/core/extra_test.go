package core

import (
	"fmt"
	"strings"
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/drc"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// Via-shape instances must agree between the two exact solvers too.
func TestSolversAgreeWithViaShapes(t *testing.T) {
	shapes := []tech.ViaShape{tech.SingleVia, tech.HBarVia}
	for seed := int64(60); seed < 66; seed++ {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 4, 4, 3
		opt.NumNets = 2
		opt.MaxSinks = 1
		opt.ObstacleFrac = 0
		c := clip.Synthesize(opt)
		g, err := rgraph.Build(c, rgraph.Options{ViaShapes: shapes})
		if err != nil {
			t.Fatal(err)
		}
		bs, err := SolveBnB(g, BnBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		is, err := SolveILP(g, ilp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if bs.Feasible != is.Feasible {
			t.Fatalf("seed %d: feasibility: bnb=%v ilp=%v", seed, bs.Feasible, is.Feasible)
		}
		if bs.Feasible && bs.Cost != is.Cost {
			t.Fatalf("seed %d: cost: bnb=%d ilp=%d", seed, bs.Cost, is.Cost)
		}
		if bs.Feasible {
			if v := drc.Check(g, bs.NetArcs); len(v) != 0 {
				t.Fatalf("seed %d: bnb violations %v", seed, v)
			}
			if v := drc.Check(g, is.NetArcs); len(v) != 0 {
				t.Fatalf("seed %d: ilp violations %v", seed, v)
			}
		}
	}
}

func TestEncodeSolutionRoundTrip(t *testing.T) {
	rule6, _ := tech.RuleByName("RULE6")
	g := mustGraph(t, crossingClip(), rgraph.Options{Rule: rule6})
	h := SolveHeuristic(g, HeuristicOptions{})
	if !h.Feasible {
		t.Skip("heuristic failed; nothing to encode")
	}
	m := BuildILP(g)
	x := m.EncodeSolution(h)
	if x == nil {
		t.Fatal("heuristic solution failed to encode")
	}
	ok, obj := m.Model.CheckFeasible(x, 1e-6)
	if !ok {
		t.Fatal("encoded assignment infeasible")
	}
	if int(obj+0.5) != h.Cost {
		t.Fatalf("encoded objective %v != heuristic cost %d", obj, h.Cost)
	}
	// Decode must reproduce the arc sets.
	decoded := m.DecodeSolution(x)
	for k := range decoded {
		if len(decoded[k]) != len(h.NetArcs[k]) {
			t.Fatalf("net %d: decoded %d arcs, original %d", k, len(decoded[k]), len(h.NetArcs[k]))
		}
	}
}

func TestEncodeRejectsInfeasible(t *testing.T) {
	g := mustGraph(t, crossingClip(), rgraph.Options{})
	m := BuildILP(g)
	if m.EncodeSolution(nil) != nil {
		t.Error("nil solution must encode to nil")
	}
	if m.EncodeSolution(&Solution{Feasible: false}) != nil {
		t.Error("infeasible solution must encode to nil")
	}
}

func TestRenderASCII(t *testing.T) {
	g := mustGraph(t, crossingClip(), rgraph.Options{})
	sol, err := SolveBnB(g, BnBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderASCII(g, sol)
	if !strings.Contains(out, "M2 (V)") || !strings.Contains(out, "M3 (H)") {
		t.Fatalf("missing layer headers:\n%s", out)
	}
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Fatalf("missing net glyphs:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Fatalf("crossing solution must show vias:\n%s", out)
	}
	// Unrouted render shows pins only and never vias.
	bare := RenderASCII(g, nil)
	if strings.Contains(bare, "*") {
		t.Fatal("unrouted render must not show vias")
	}
}

func TestRenderShowsObstacles(t *testing.T) {
	c := crossingClip()
	c.Obstacles = []clip.AccessPoint{{X: 0, Y: 0, Z: 2}}
	g := mustGraph(t, c, rgraph.Options{})
	if !strings.Contains(RenderASCII(g, nil), "#") {
		t.Fatal("obstacle glyph missing")
	}
}

// Direct Steiner engine tests.
func TestSteinerSingleSinkIsShortestPath(t *testing.T) {
	c := &clip.Clip{
		Name: "sp", Tech: "t",
		NX: 5, NY: 5, NZ: 3, MinLayer: 1,
		Nets: []clip.Net{{Name: "a", Pins: []clip.Pin{
			{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
			{Name: "t", APs: []clip.AccessPoint{{X: 4, Y: 4, Z: 1}}},
		}}},
	}
	g := mustGraph(t, c, rgraph.Options{})
	own := newOwnership(g)
	ctx := newSteinerCtx(g, own, 0, nil)
	arcs, cost, ok := steinerTree(ctx)
	if !ok {
		t.Fatal("no tree found")
	}
	// Manhattan: 4 vertical steps on M2 + column change needs M3: 4 wire
	// across + 2 vias: cost = 4 + 4 + 8 = 16.
	if cost != 16 {
		t.Fatalf("cost = %d, want 16", cost)
	}
	if len(arcs) == 0 {
		t.Fatal("no arcs")
	}
}

func TestSteinerBansRespected(t *testing.T) {
	c := &clip.Clip{
		Name: "ban", Tech: "t",
		NX: 1, NY: 3, NZ: 2, MinLayer: 1,
		Nets: []clip.Net{{Name: "a", Pins: []clip.Pin{
			{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
			{Name: "t", APs: []clip.AccessPoint{{X: 0, Y: 2, Z: 1}}},
		}}},
	}
	g := mustGraph(t, c, rgraph.Options{})
	own := newOwnership(g)
	ctx := newSteinerCtx(g, own, 0, nil)
	_, cost, ok := steinerTree(ctx)
	if !ok || cost != 2 {
		t.Fatalf("baseline: ok=%v cost=%d", ok, cost)
	}
	// Ban every wire arc: the single-column net becomes unroutable.
	for a := range g.Arcs {
		if g.Arcs[a].Kind == rgraph.Wire {
			ctx.banned[a] = true
		}
	}
	if _, _, ok := steinerTree(ctx); ok {
		t.Fatal("banned route still found")
	}
}

func TestSteinerMultiSinkOptimal(t *testing.T) {
	// Source at center bottom, three sinks up the same column at rows
	// 2, 3, 4: one path covers all (cost 4), not 2+3+4.
	c := &clip.Clip{
		Name: "ms", Tech: "t",
		NX: 3, NY: 5, NZ: 2, MinLayer: 1,
		Nets: []clip.Net{{Name: "a", Pins: []clip.Pin{
			{Name: "s", APs: []clip.AccessPoint{{X: 1, Y: 0, Z: 1}}},
			{Name: "t1", APs: []clip.AccessPoint{{X: 1, Y: 2, Z: 1}}},
			{Name: "t2", APs: []clip.AccessPoint{{X: 1, Y: 3, Z: 1}}},
			{Name: "t3", APs: []clip.AccessPoint{{X: 1, Y: 4, Z: 1}}},
		}}},
	}
	g := mustGraph(t, c, rgraph.Options{})
	own := newOwnership(g)
	arcs, cost, ok := steinerTree(newSteinerCtx(g, own, 0, nil))
	if !ok || cost != 4 {
		t.Fatalf("ok=%v cost=%d want 4", ok, cost)
	}
	wires := 0
	for _, a := range arcs {
		if g.Arcs[a].Kind == rgraph.Wire {
			wires++
		}
	}
	if wires != 4 {
		t.Fatalf("wire arcs = %d, want 4 (shared trunk)", wires)
	}
}

func TestBnBNodeLimit(t *testing.T) {
	opt := clip.DefaultSynth(70)
	opt.NX, opt.NY, opt.NZ = 5, 6, 4
	opt.NumNets = 4
	c := clip.Synthesize(opt)
	rule9, _ := tech.RuleByName("RULE9")
	g, err := rgraph.Build(c, rgraph.Options{Rule: rule9})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := SolveBnB(g, BnBOptions{MaxNodes: 2, NoHeuristicSeed: true})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Proven && sol.Nodes >= 2 && !sol.Feasible {
		t.Fatalf("2-node budget claims a proof of infeasibility: %+v", sol)
	}
}

func TestHeuristicProvenInfeasible(t *testing.T) {
	// Single net with its sink walled off by obstacles: the probe proves
	// infeasibility.
	c := &clip.Clip{
		Name: "walled", Tech: "t",
		NX: 3, NY: 3, NZ: 2, MinLayer: 1,
		Obstacles: []clip.AccessPoint{
			{X: 1, Y: 0, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 1, Y: 2, Z: 1},
		},
		Nets: []clip.Net{{Name: "a", Pins: []clip.Pin{
			{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
			{Name: "t", APs: []clip.AccessPoint{{X: 2, Y: 0, Z: 1}}},
		}}},
	}
	g := mustGraph(t, c, rgraph.Options{})
	h := SolveHeuristic(g, HeuristicOptions{})
	if h.Feasible || !h.Proven {
		t.Fatalf("expected proven infeasible, got %+v", h)
	}
	b, err := SolveBnB(g, BnBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Feasible || !b.Proven {
		t.Fatalf("BnB should agree: %+v", b)
	}
}

// TestSinkLimitNotProvenInfeasible is the regression test for a net beyond
// the Steiner kernel's 16-sink limit: the kernel cannot solve it, which says
// nothing about the clip's feasibility. SolveBnB must fail naming the net
// instead of reporting a proven-infeasible clip, and SolveHeuristic must
// return an unproven result.
func TestSinkLimitNotProvenInfeasible(t *testing.T) {
	c := &clip.Clip{Name: "wide", Tech: "t", NX: 6, NY: 4, NZ: 3, MinLayer: 1}
	big := clip.Net{Name: "big"}
	for i := 0; i < 18; i++ { // one source and 17 sinks
		big.Pins = append(big.Pins, clip.Pin{
			Name: fmt.Sprintf("p%d", i),
			APs:  []clip.AccessPoint{{X: i % 6, Y: i / 6, Z: 1}},
		})
	}
	c.Nets = []clip.Net{big}
	g := mustGraph(t, c, rgraph.Options{})
	if n := len(g.SinkVerts[0]); n != 17 {
		t.Fatalf("net has %d sinks, want 17", n)
	}
	if h := SolveHeuristic(g, HeuristicOptions{}); h.Feasible || h.Proven {
		t.Fatalf("heuristic: feasible=%v proven=%v, want an unproven result", h.Feasible, h.Proven)
	}
	sol, err := SolveBnB(g, BnBOptions{})
	if err == nil {
		t.Fatalf("SolveBnB returned feasible=%v proven=%v, want an error", sol.Feasible, sol.Proven)
	}
	if msg := err.Error(); !strings.Contains(msg, `"big"`) || !strings.Contains(msg, "17 sinks") {
		t.Fatalf("error %q does not name the net and its sink count", msg)
	}
}
