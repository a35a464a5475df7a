package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// inheritOracle re-solves every route a search inherits with the Steiner
// kernel under the inheriting worker's live ban set, and cancels the search
// at the first mismatch. Each worker id gets its own contexts: a sched
// worker runs one job at a time, so they are never shared.
type inheritOracle struct {
	ctxs   [][]*steinerCtx // [worker id][net]
	cancel context.CancelFunc

	mu     sync.Mutex
	checks int
	bad    []string
}

func newInheritOracle(g *rgraph.Graph, par int) *inheritOracle {
	o := &inheritOracle{ctxs: make([][]*steinerCtx, max(par, 1))}
	own := newOwnership(g)
	for id := range o.ctxs {
		arena := NewSteinerArena()
		for k := range g.Clip.Nets {
			o.ctxs[id] = append(o.ctxs[id], newSteinerCtx(g, own, k, arena))
		}
	}
	return o
}

func (o *inheritOracle) hook(w *bnbWorker, k int, arcs []int32, cost int64, inherited bool) {
	if !inherited {
		return
	}
	ctx := o.ctxs[w.id][k]
	copy(ctx.banned, w.baseBans[k])
	for _, a := range w.bans.net[k] {
		ctx.banned[a] = true
	}
	want, wantCost, ok := steinerTree(ctx)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.checks++
	if !ok || wantCost != cost || !slices.Equal(want, arcs) {
		o.bad = append(o.bad, fmt.Sprintf("net %d: inherited cost %d arcs %v, kernel ok=%v cost %d arcs %v",
			k, cost, arcs, ok, wantCost, want))
		if o.cancel != nil {
			o.cancel()
		}
	}
}

// TestInheritedRoutesMatchKernel is the oracle for route inheritance: every
// per-net route a strong-branching or dive trial takes from its reference
// routes must be the route the kernel returns under the trial's ban set, in
// arcs and cost. It covers the search-tree golden's clips under RULE1, RULE7
// and RULE8 at Par 0 and Par 2, and clips with up to three sinks per net,
// whose solves run subset merges.
func TestInheritedRoutesMatchKernel(t *testing.T) {
	type instance struct {
		name string
		g    *rgraph.Graph
	}
	var insts []instance
	for _, rn := range []string{"RULE1", "RULE7", "RULE8"} {
		for i, seed := range treeGoldenSeeds {
			if testing.Short() && (i%4 != 0 || i >= 16) {
				continue // short mode skips the largest searches
			}
			insts = append(insts, instance{fmt.Sprintf("%s-s%d", rn, seed), treeGraph(t, seed, rn)})
		}
	}
	sinkSeeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		sinkSeeds = sinkSeeds[:2]
	}
	for _, seed := range sinkSeeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 5, 6, 3
		opt.NumNets = 3
		opt.MaxSinks = 3
		c := clip.Synthesize(opt)
		for _, rn := range []string{"RULE1", "RULE8"} {
			rule, _ := tech.RuleByName(rn)
			g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
			if err != nil {
				t.Fatal(err)
			}
			insts = append(insts, instance{fmt.Sprintf("%s-3sinks-s%d", rn, seed), g})
		}
	}

	total := 0
	for _, in := range insts {
		for _, par := range []int{0, 2} {
			o := newInheritOracle(in.g, par)
			ctx, cancel := context.WithCancel(context.Background())
			o.cancel = cancel
			sol, err := SolveBnB(in.g, BnBOptions{Par: par, Ctx: ctx, testRoute: o.hook})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if len(o.bad) > 0 {
				t.Fatalf("%s par %d: inherited route differs from the kernel's: %s", in.name, par, o.bad[0])
			}
			if !sol.Proven {
				t.Fatalf("%s par %d: no proof (termination %s)", in.name, par, sol.Stats.Termination)
			}
			if got := sol.Stats.SteinerInherited; got != o.checks {
				t.Errorf("%s par %d: SteinerInherited %d, oracle saw %d inherited routes", in.name, par, got, o.checks)
			}
			total += o.checks
		}
	}
	if total == 0 {
		t.Fatal("no route was inherited")
	}
	t.Logf("%d inherited routes re-solved on %d clips", total, len(insts))
}

// TestRouteRequestsAccounted checks the per-net route counters at Par 0:
// every route evaluate hands out is a kernel solve, a route-cache hit or an
// inherited route, so the three sum to the requests.
func TestRouteRequestsAccounted(t *testing.T) {
	for _, seed := range []int64{157, 84, 115} {
		requests := 0
		sol, err := SolveBnB(treeGraph(t, seed, "RULE8"), BnBOptions{testRoute: func(*bnbWorker, int, []int32, int64, bool) {
			requests++
		}})
		if err != nil {
			t.Fatal(err)
		}
		st := sol.Stats
		if st.SteinerInherited == 0 || st.SteinerCacheHits == 0 || st.SteinerSolves == 0 {
			t.Errorf("s%d: a route source never fired: %+v", seed, st)
		}
		if sum := st.SteinerSolves + st.SteinerCacheHits + st.SteinerInherited; sum != requests {
			t.Errorf("s%d: solves %d + cache hits %d + inherited %d = %d, want %d route requests",
				seed, st.SteinerSolves, st.SteinerCacheHits, st.SteinerInherited, sum, requests)
		}
	}
}
