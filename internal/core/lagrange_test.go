package core

import (
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// The Lagrangian bound must never exceed the proven optimal cost, for any
// number of subgradient rounds (validity of the dual bound).
func TestLagrangianBoundAdmissible(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 5, 6, 3
		opt.NumNets = 3
		c := clip.Synthesize(opt)
		rule6, _ := tech.RuleByName("RULE6")
		g, err := rgraph.Build(c, rgraph.Options{Rule: rule6})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveBnB(g, BnBOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Feasible || !sol.Proven {
			continue
		}
		own := newOwnership(g)
		ctxs := make([]*steinerCtx, len(c.Nets))
		for k := range ctxs {
			ctxs[k] = newSteinerCtx(g, own, k, nil)
		}
		lag := newLagrangian(g)
		for _, rounds := range []int{1, 4, 12} {
			lb := lag.bound(ctxs, rounds, nil)
			if lb == -2 {
				t.Fatalf("seed %d: lagrangian claims infeasible on a feasible clip", seed)
			}
			if lb > int64(sol.Cost) {
				t.Fatalf("seed %d: lagrangian bound %d exceeds optimum %d (rounds=%d)",
					seed, lb, sol.Cost, rounds)
			}
		}
	}
}

// With no conflicts, the Lagrangian bound equals the independent bound,
// which equals the optimum.
func TestLagrangianTightWithoutConflicts(t *testing.T) {
	g := mustGraph(t, twoNetClip(), rgraph.Options{})
	own := newOwnership(g)
	ctxs := []*steinerCtx{newSteinerCtx(g, own, 0, nil), newSteinerCtx(g, own, 1, nil)}
	lag := newLagrangian(g)
	lb := lag.bound(ctxs, 3, nil)
	if lb != 4 {
		t.Fatalf("bound = %d, want 4 (the conflict-free optimum)", lb)
	}
	if len(lag.lambdaArc) != 0 || len(lag.lambdaVert) != 0 {
		t.Fatal("penalties should stay empty without conflicts")
	}
}

// Penalties rise on genuinely contested resources: with a single M3 row,
// two column-crossing nets must share the middle horizontal arc.
func TestLagrangianPenalizesContention(t *testing.T) {
	c := &clip.Clip{
		Name: "contend", Tech: "t",
		NX: 4, NY: 1, NZ: 3, MinLayer: 1,
		Nets: []clip.Net{
			{Name: "a", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 0, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 2, Y: 0, Z: 1}}},
			}},
			{Name: "b", Pins: []clip.Pin{
				{Name: "s", APs: []clip.AccessPoint{{X: 3, Y: 0, Z: 1}}},
				{Name: "t", APs: []clip.AccessPoint{{X: 1, Y: 0, Z: 1}}},
			}},
		},
	}
	g := mustGraph(t, c, rgraph.Options{})
	own := newOwnership(g)
	ctxs := []*steinerCtx{newSteinerCtx(g, own, 0, nil), newSteinerCtx(g, own, 1, nil)}
	lag := newLagrangian(g)
	lb := lag.bound(ctxs, 2, nil)
	if lb == -2 {
		t.Fatal("instance unexpectedly infeasible for a single net")
	}
	if len(lag.lambdaArc)+len(lag.lambdaVert) == 0 {
		t.Fatal("contested resources received no penalty")
	}
}
