package core

import (
	"slices"
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// TestBnBFloorAndIncumbent covers the two inputs a rule sweep hands a
// stricter rule's solve: a proven floor and a clean incumbent. A solve keeps
// its optimum with either; an incumbent that meets the floor ends the solve
// before the root; an incumbent that is not a legal routing is an error.
func TestBnBFloorAndIncumbent(t *testing.T) {
	c := clip.Synthesize(clip.SynthOptions{
		NX: 7, NY: 10, NZ: 4, MinLayer: 1, NumNets: 3, MaxSinks: 2, PinAPs: 2,
		BoundaryFrac: 0.4, ObstacleFrac: 0.05, Seed: 43,
	})
	build := func(name string) *rgraph.Graph {
		rule, _ := tech.RuleByName(name)
		g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	solve := func(g *rgraph.Graph, opt BnBOptions) *Solution {
		t.Helper()
		sol, err := SolveBnB(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Proven || !sol.Feasible {
			t.Fatalf("%s: feasible=%v proven=%v (%s)", g.Opt.Rule.Name, sol.Feasible, sol.Proven, sol.Stats.Termination)
		}
		return sol
	}
	g1, g8 := build("RULE1"), build("RULE8")
	loose, plain := solve(g1, BnBOptions{}), solve(g8, BnBOptions{})
	if loose.Cost >= plain.Cost {
		t.Fatalf("RULE1 cost %d, RULE8 cost %d: the clip must make RULE8 dearer", loose.Cost, plain.Cost)
	}

	cases := []struct {
		name string
		opt  BnBOptions
		term string
	}{
		{"looser optimum as floor", BnBOptions{Floor: int64(loose.Cost)}, "optimal"},
		{"optimal incumbent", BnBOptions{Incumbent: plain.NetArcs}, "optimal"},
		{"incumbent meets floor", BnBOptions{Incumbent: plain.NetArcs, Floor: int64(plain.Cost)}, "floor"},
	}
	for _, tc := range cases {
		sol := solve(g8, tc.opt)
		if sol.Cost != plain.Cost || sol.Stats.Termination != tc.term {
			t.Errorf("%s: cost %d (%s), want %d (%s)", tc.name, sol.Cost, sol.Stats.Termination, plain.Cost, tc.term)
		}
		if tc.term == "floor" && sol.Nodes != 0 {
			t.Errorf("%s: %d nodes, want none", tc.name, sol.Nodes)
		}
	}

	crossed := slices.Clone(plain.NetArcs)
	crossed[1] = crossed[0]
	for name, bad := range map[string][][]int32{
		"too few nets":  plain.NetArcs[:2],
		"arc of range":  {{int32(len(g8.Arcs))}, nil, nil},
		"shared routes": crossed,
	} {
		if _, err := SolveBnB(g8, BnBOptions{Incumbent: bad}); err == nil {
			t.Errorf("%s: SolveBnB accepted an illegal incumbent", name)
		}
	}
	if _, err := SolveBnB(g8, BnBOptions{Incumbent: loose.NetArcs}); err == nil {
		t.Error("SolveBnB accepted RULE1's cheaper routes as a RULE8 incumbent")
	}
}
