package core

import (
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/ilp"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// synthGraph builds the differential-corpus clip for one seed under one rule
// (the same geometry TestDifferentialILPvsBnB uses).
func synthGraph(tb testing.TB, seed int64, ruleName string) *rgraph.Graph {
	tb.Helper()
	opt := clip.DefaultSynth(seed)
	opt.NX, opt.NY, opt.NZ = 4, 5, 3
	opt.NumNets = 3
	opt.MaxSinks = 2
	c := clip.Synthesize(opt)
	c.Tech = "N28-12T"
	rule, ok := tech.RuleByName(ruleName)
	if !ok {
		tb.Fatalf("unknown rule %s", ruleName)
	}
	g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestRouteCacheCollisionSafety pins the properties SolveBnB's route cache
// rests on: a net's ban fingerprint is independent of insertion order and of
// other nets' bans, a rollback restores it exactly, a node's carried
// fingerprint (its parent's plus its delta) matches the set it loads, and
// lookupRoute never returns an entry whose ban-id set differs from the probe
// — even when entries share a fingerprint bucket, as they would after a hash
// collision.
func TestRouteCacheCollisionSafety(t *testing.T) {
	const nNets, nArcs = 4, 2048
	arcs := []int32{3, 17, 255, 1024, 7}
	fwd := newBanSet(nNets, nArcs)
	rev := newBanSet(nNets, nArcs)
	root := &bnbNode{fp: make([]banPrint, nNets)}
	fwd.load(root)
	rev.load(root)
	for _, a := range arcs {
		fwd.push([]banKey{{net: 1, arc: a}})
	}
	for i := len(arcs) - 1; i >= 0; i-- {
		rev.push([]banKey{{net: 1, arc: arcs[i]}, {net: 2, arc: arcs[i] + 1}}) // net 2: must be ignored
	}
	if fwd.fp[1] != rev.fp[1] || fwd.fp[1].n != int32(len(arcs)) {
		t.Fatalf("fingerprint depends on insertion order or foreign nets: %+v vs %+v", fwd.fp[1], rev.fp[1])
	}
	if fwd.fp[3] != (banPrint{}) {
		t.Fatalf("empty ban subset fingerprints %+v, want zero", fwd.fp[3])
	}
	// A repeated ban is not journaled and changes nothing.
	before := rev.fp[1]
	if mark := rev.push([]banKey{{net: 1, arc: 3}}); len(rev.journal) != mark || rev.fp[1] != before {
		t.Fatal("re-banning a banned arc changed the set")
	}
	mark := rev.push([]banKey{{net: 1, arc: 99}, {net: 2, arc: 5}})
	rev.rollback(mark)
	if rev.fp[1] != before || rev.has(1, 99) || rev.has(2, 5) || len(rev.net[1]) != len(arcs) {
		t.Fatal("rollback did not restore the set")
	}

	// Carried fingerprints: a child built from its parent's fingerprint plus
	// its delta loads into the same fingerprint as the whole chain.
	parent := &bnbNode{parent: root, bans: []banKey{{1, 3}, {1, 17}}, fp: make([]banPrint, nNets)}
	for _, b := range parent.bans {
		parent.fp[b.net].add(b.arc)
	}
	child := &bnbNode{parent: parent, bans: []banKey{{1, 255}, {0, 9}}, fp: slices.Clone(parent.fp)}
	for _, b := range child.bans {
		child.fp[b.net].add(b.arc)
	}
	chain := newBanSet(nNets, nArcs)
	chain.load(root)
	chain.push([]banKey{{0, 9}, {1, 255}, {1, 17}, {1, 3}})
	loaded := newBanSet(nNets, nArcs)
	loaded.load(child)
	if !slices.Equal(loaded.fp, chain.fp) || !loaded.has(1, 17) || !loaded.has(0, 9) {
		t.Fatalf("carried fingerprints %+v, pushed %+v", loaded.fp, chain.fp)
	}

	// Collision safety: two entries in the same bucket with different ban-id
	// sets. The probe must select by set equality, not bucket membership.
	entries := []*cachedRoute{
		{ids: []int32{5}, cost: 50, ok: true},
		{ids: []int32{9}, cost: 90, ok: true},
		{ids: []int32{5, 9}, cost: 59, ok: true},
	}
	probe := func(ids ...int32) *cachedRoute {
		bans := newBanSet(nNets, nArcs)
		bans.load(root)
		bans.push([]banKey{{net: 3, arc: 5}}) // foreign net noise
		for _, id := range ids {
			bans.push([]banKey{{net: 0, arc: id}})
		}
		return lookupRoute(entries, 0, bans)
	}
	if e := probe(5); e == nil || e.cost != 50 {
		t.Fatalf("probe {5}: got %+v, want the cost-50 entry", e)
	}
	if e := probe(9); e == nil || e.cost != 90 {
		t.Fatalf("probe {9}: got %+v, want the cost-90 entry", e)
	}
	if e := probe(5, 9); e == nil || e.cost != 59 {
		t.Fatalf("probe {5,9}: got %+v, want the cost-59 entry", e)
	}
	if e := probe(7); e != nil {
		t.Fatalf("probe {7}: got %+v, want a miss", e)
	}
	if e := probe(); e != nil {
		t.Fatalf("empty probe: got %+v, want a miss", e)
	}
}

// TestSteinerTreeAllocs pins the tentpole pooling property: after the first
// solve has sized the arena, repeated Steiner solves on the same context
// allocate nothing — DP tables, queues and the result buffer all recycle.
func TestSteinerTreeAllocs(t *testing.T) {
	g := synthGraph(t, 3, "RULE1")
	own := newOwnership(g)
	arena := NewSteinerArena()
	ctx := newSteinerCtx(g, own, 0, arena)
	if _, _, ok := steinerTree(ctx); !ok {
		t.Fatal("net 0 unroutable under RULE1")
	}
	allocs := testing.AllocsPerRun(64, func() {
		if _, _, ok := steinerTree(ctx); !ok {
			t.Error("net 0 became unroutable")
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state steinerTree allocates %.1f objects/solve, want 0", allocs)
	}
}

// TestColdVsWarmILP is the warm-start differential: over the differential
// corpus, the MILP solver with node-LP warm starts disabled must agree with
// the default warm-started solver on feasibility and optimal cost. Search
// statistics (nodes, LP iterations) are allowed to differ — warm-started LPs
// may land on a different optimal vertex and steer branching elsewhere — but
// answers may not.
func TestColdVsWarmILP(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	ruleNames := []string{"RULE1", "RULE7", "RULE8"}
	for _, seed := range seeds {
		for _, rn := range ruleNames {
			t.Run(fmt.Sprintf("seed%d-%s", seed, rn), func(t *testing.T) {
				g := synthGraph(t, seed, rn)
				warm, err := SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				cold, err := SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second, NoWarmStart: true})
				if err != nil {
					t.Fatal(err)
				}
				if !warm.Proven || !cold.Proven {
					t.Skipf("no proof within budget (warm=%v cold=%v)", warm.Proven, cold.Proven)
				}
				if warm.Feasible != cold.Feasible {
					t.Fatalf("feasibility disagreement: warm=%v cold=%v", warm.Feasible, cold.Feasible)
				}
				if warm.Feasible && warm.Cost != cold.Cost {
					t.Fatalf("optimal cost disagreement: warm=%d cold=%d", warm.Cost, cold.Cost)
				}
				if cold.Stats.LPWarmStarts != 0 {
					t.Fatalf("NoWarmStart solve recorded %d warm starts", cold.Stats.LPWarmStarts)
				}
			})
		}
	}
}

// benchmarkBnBFlight measures a full CDC-BnB solve with the flight recorder
// in a given state; the Off/On pair quantifies recording overhead (the
// acceptance bar for the flight recorder is <= 5% wall on the corpus, with
// recording off by default — Off must stay indistinguishable from the
// pre-instrumentation solver).
func benchmarkBnBFlight(b *testing.B, fo obs.FlightOptions) {
	g := synthGraph(b, 3, "RULE7")
	tr := obs.NewTracer(io.Discard)
	arena := NewSteinerArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBnB(g, BnBOptions{Tracer: tr, Flight: fo, Arena: arena}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBnBFlightOff(b *testing.B) { benchmarkBnBFlight(b, obs.FlightOptions{}) }
func BenchmarkBnBFlightOn(b *testing.B) {
	benchmarkBnBFlight(b, obs.FlightOptions{Enabled: true})
}

// BenchmarkParallelBnB measures the CDC-BnB's round loop at several worker
// counts against width-1 serial rounds (par=0) on the same instance. On a
// multi-core host the par>1 columns show the scaling curve; on a single-core
// host they quantify the cost of 32-wide rounds (the answers are identical
// either way — that is the search's contract).
func BenchmarkParallelBnB(b *testing.B) {
	for _, par := range []int{0, 1, 2, 4, 8} {
		b.Run(fmt.Sprintf("par%d", par), func(b *testing.B) {
			g := synthGraph(b, 3, "RULE7")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := SolveBnB(g, BnBOptions{Par: par})
				if err != nil {
					b.Fatal(err)
				}
				if !sol.Proven {
					b.Fatal("benchmark instance must be proven")
				}
			}
		})
	}
}

// BenchmarkSteinerTree measures one pooled exact Steiner arborescence solve
// (the inner loop of every CDC-BnB node evaluation).
func BenchmarkSteinerTree(b *testing.B) {
	g := synthGraph(b, 3, "RULE1")
	own := newOwnership(g)
	arena := NewSteinerArena()
	ctx := newSteinerCtx(g, own, 0, arena)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := steinerTree(ctx); !ok {
			b.Fatal("net 0 unroutable")
		}
	}
}
