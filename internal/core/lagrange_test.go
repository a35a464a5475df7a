package core

import (
	"math/rand"
	"slices"
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
	if len(lag.activeArcs) != 0 || len(lag.activeVerts) != 0 {
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
	if len(lag.activeArcs)+len(lag.activeVerts) == 0 {
		t.Fatal("contested resources received no penalty")
	}
}

// TestLagrangianMatchesMapReference pins the dense Lagrangian bookkeeping
// to the map-based implementation it replaced: over synthesized clips, rules,
// random bans and round counts — with and without the L(0) routes supplied
// — one reused lagrangian must return bit-identical bounds.
func TestLagrangianMatchesMapReference(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	bounded := 0
	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY = 7, 10
		c := clip.Synthesize(opt)
		for _, rn := range []string{"RULE1", "RULE7", "RULE8"} {
			rule, _ := tech.RuleByName(rn)
			g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
			if err != nil {
				t.Fatal(err)
			}
			own := newOwnership(g)
			ctxs := make([]*steinerCtx, len(c.Nets))
			for k := range ctxs {
				ctxs[k] = newSteinerCtx(g, own, k, NewSteinerArena())
			}
			lag := newLagrangian(g)
			rng := rand.New(rand.NewSource(seed))
			for trial := 0; trial < 8; trial++ {
				for i := 0; i < 4; i++ {
					ctxs[rng.Intn(len(ctxs))].banned[rng.Intn(len(g.Arcs))] = true
				}
				var routes [][]int32
				if trial%2 == 1 {
					for _, ctx := range ctxs {
						arcs, _, ok := steinerTree(ctx)
						if !ok {
							routes = nil
							break
						}
						routes = append(routes, slices.Clone(arcs))
					}
				}
				rounds := 1 + trial%4
				got := lag.bound(ctxs, rounds, routes)
				want := refLagrangianBound(g, ctxs, rounds, routes)
				if got != want {
					t.Fatalf("seed %d %s trial %d: bound %d, map reference %d", seed, rn, trial, got, want)
				}
				if got >= 0 {
					bounded++
				}
			}
		}
	}
	if bounded == 0 {
		t.Fatal("every instance was infeasible: nothing compared")
	}
}

// refLagrangianBound is the map-based bound the dense lagrangian replaced.
func refLagrangianBound(g *rgraph.Graph, ctxs []*steinerCtx, rounds int, routes [][]int32) int64 {
	lambdaArc := map[int32]int64{}
	lambdaVert := map[int32]int64{}
	penalty := make([]int64, len(g.Arcs))
	canon := func(a int32) int32 { return min(a, g.Pair[a]) }
	best := int64(-1)
	for round := 0; round <= rounds; round++ {
		clear(penalty)
		total := int64(0)
		for ca, v := range lambdaArc {
			penalty[ca] += v
			penalty[g.Pair[ca]] += v
			total += v
		}
		for vert, v := range lambdaVert {
			for _, in := range g.In[vert] {
				penalty[in] += v
			}
			total += v
		}
		sum := int64(0)
		useArc := map[int32]int{}
		useVert := map[int32]int{}
		for k, ctx := range ctxs {
			var arcs []int32
			var cost int64
			if round == 0 && routes != nil {
				arcs = routes[k]
				for _, a := range arcs {
					cost += int64(g.Arcs[a].Cost)
				}
			} else {
				ctx.penalty = penalty
				var ok bool
				arcs, cost, ok = steinerTree(ctx)
				ctx.penalty = nil
				if !ok {
					return -2
				}
			}
			sum += cost
			seenV := map[int32]bool{}
			for _, a := range arcs {
				useArc[canon(a)]++
				to := g.Arcs[a].To
				if g.IsGrid(to) && !seenV[to] {
					seenV[to] = true
					useVert[to]++
				}
			}
		}
		best = max(best, sum-total)
		if round == rounds {
			break
		}
		for _, m := range []struct {
			lambda map[int32]int64
			use    map[int32]int
		}{{lambdaArc, useArc}, {lambdaVert, useVert}} {
			for r, n := range m.use {
				if n >= 2 {
					m.lambda[r] += int64(n - 1)
				}
			}
			for r := range m.lambda {
				if m.use[r] <= 1 {
					m.lambda[r]--
					if m.lambda[r] <= 0 {
						delete(m.lambda, r)
					}
				}
			}
		}
	}
	return best
}
