package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"optrouter/internal/clip"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// TestSteinerEarlyExitMatchesFullRelax is the early exit's differential
// test: on synthesized clips with nets of up to four sinks, under random
// bans, the kernel that stops the full-mask relaxation when the source pops
// must return the same arcs, in the same order, and the same cost as the
// kernel that relaxes that row to exhaustion. Each instance runs
// unpenalized, with small penalties (the bucket queue) and with penalties
// too large for the bucket span (the heap), and the early exit must
// have saved DP cells overall.
func TestSteinerEarlyExitMatchesFullRelax(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	var cellsEarly, cellsFull int64
	heapSolves := 0
	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY = 7, 10
		opt.MaxSinks = 4
		c := clip.Synthesize(opt)
		for _, rn := range []string{"RULE1", "RULE8"} {
			rule, _ := tech.RuleByName(rn)
			g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
			if err != nil {
				t.Fatal(err)
			}
			own := newOwnership(g)
			rng := rand.New(rand.NewSource(seed))
			for k := range g.Source {
				early := newSteinerCtx(g, own, k, NewSteinerArena())
				full := newSteinerCtx(g, own, k, NewSteinerArena())
				full.fullRelax = true
				for trial := 0; trial < 12; trial++ {
					copy(full.banned, early.banned)
					for i := 0; i < trial; i++ {
						a := rng.Intn(len(g.Arcs))
						early.banned[a], full.banned[a] = true, true
					}
					var penalty []int64
					switch trial % 3 {
					case 1:
						penalty = randomPenalties(rng, len(g.Arcs), 20)
					case 2:
						penalty = randomPenalties(rng, len(g.Arcs), 200000)
					}
					early.penalty, full.penalty = penalty, penalty
					if early.maxCost()*int64(g.NumVerts) > maxBucketSpan {
						heapSolves++
					}
					ea, ec, eok := steinerTree(early)
					ea = slices.Clone(ea)
					fa, fc, fok := steinerTree(full)
					name := fmt.Sprintf("seed%d-%s-net%d-trial%d", seed, rn, k, trial)
					if eok != fok || ec != fc || !slices.Equal(ea, fa) {
						t.Fatalf("%s: early exit (ok=%v cost=%d arcs=%v), full relaxation (ok=%v cost=%d arcs=%v)",
							name, eok, ec, ea, fok, fc, fa)
					}
				}
				cellsEarly += early.cells
				cellsFull += full.cells
			}
		}
	}
	if heapSolves == 0 {
		t.Fatal("no solve took the heap path")
	}
	if cellsEarly >= cellsFull {
		t.Fatalf("early exit saved no DP cells (%d vs %d)", cellsEarly, cellsFull)
	}
	t.Logf("DP cells: early exit %d, full relaxation %d", cellsEarly, cellsFull)
}

func randomPenalties(rng *rand.Rand, n int, max int64) []int64 {
	p := make([]int64, n)
	for i := range p {
		p[i] = rng.Int63n(max + 1)
	}
	return p
}
