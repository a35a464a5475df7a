package core

import (
	"fmt"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/ilp"
	"optrouter/internal/lp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// milpGolden is one pinned SolveILP run: the answer (cost -1 when
// infeasible), the proof flag, the root structural presolve's reductions and
// the search it left behind.
type milpGolden struct {
	cost       int
	proven     bool
	psRows     int
	psCols     int
	nodes      int
	lpIters    int
	nx, ny, nz int
	seed       int64
	rule       string
}

// milpGoldens pins the MILP root reduction on small synthesized clips. The
// s81 RULE7/RULE8 entries are the clips whose structural presolve removes
// forced and redundant rows on the way to a searched model; s5 RULE1 is a
// clip whose forced rows let presolve prove infeasibility before any LP.
// The rest cover feasible and infeasible searches from the root alone to
// about 90 nodes.
var milpGoldens = []milpGolden{
	{56, true, 138, 100, 87, 528, 4, 5, 3, 81, "RULE1"},
	{-1, true, 694, 286, 1, 103, 4, 5, 3, 81, "RULE7"},
	{-1, true, 465, 222, 1, 103, 4, 5, 3, 81, "RULE8"},
	{-1, true, 0, 0, 0, 0, 4, 5, 3, 5, "RULE1"},
	{30, true, 23, 23, 1, 47, 4, 5, 3, 3, "RULE1"},
	{41, true, 6, 3, 63, 323, 4, 5, 3, 10, "RULE1"},
	{-1, true, 8, 7, 13, 168, 4, 5, 3, 11, "RULE7"},
	{36, true, 19, 14, 77, 1049, 5, 6, 3, 1, "RULE1"},
	{40, true, 4, 5, 7, 214, 5, 6, 3, 2, "RULE8"},
	{-1, true, 18, 15, 1, 221, 5, 6, 3, 9, "RULE7"},
	{-1, true, 4, 8, 5, 256, 5, 6, 3, 4, "RULE8"},
}

// TestMILPPresolveGolden pins SolveILP's answer, proof, presolve reductions,
// node count and simplex iterations on milpGoldens. A change to the LP
// presolve meant to keep the searched model must leave every entry
// unchanged.
func TestMILPPresolveGolden(t *testing.T) {
	for _, want := range milpGoldens {
		name := fmt.Sprintf("%dx%dx%d-s%d-%s", want.nx, want.ny, want.nz, want.seed, want.rule)
		t.Run(name, func(t *testing.T) {
			opt := clip.DefaultSynth(want.seed)
			opt.NX, opt.NY, opt.NZ = want.nx, want.ny, want.nz
			opt.NumNets = 3
			opt.MaxSinks = 2
			c := clip.Synthesize(opt)
			c.Tech = "N28-12T"
			rule, ok := tech.RuleByName(want.rule)
			if !ok {
				t.Fatalf("unknown rule %s", want.rule)
			}
			g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			got := want
			got.cost = -1
			if sol.Feasible {
				got.cost = sol.Cost
			}
			got.proven = sol.Proven
			got.psRows, got.psCols = sol.Stats.LP[lp.PresolveRows], sol.Stats.LP[lp.PresolveCols]
			got.nodes, got.lpIters = sol.Nodes, sol.LPIters
			if got != want {
				t.Errorf("got  cost=%d proven=%v presolve=%d/%d nodes=%d iters=%d\n"+
					"want cost=%d proven=%v presolve=%d/%d nodes=%d iters=%d",
					got.cost, got.proven, got.psRows, got.psCols, got.nodes, got.lpIters,
					want.cost, want.proven, want.psRows, want.psCols, want.nodes, want.lpIters)
			}
		})
	}
}
