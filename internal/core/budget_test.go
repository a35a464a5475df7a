package core

import (
	"context"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// TestILPBudgetStopsRootLP: the MILP's time limit and context reach into the
// LP. The 7x10x4 RULE8 clip's root LP takes about 2 s on a 2-vCPU x86 box;
// under a 150 ms budget SolveILP must return well before the root LP would
// have finished, unproven, with the heuristic incumbent and the budget's
// termination reason.
func TestILPBudgetStopsRootLP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 15k-row MILP; skip in -short")
	}
	opt := clip.DefaultSynth(1)
	opt.NX, opt.NY, opt.NZ = 7, 10, 4
	opt.NumNets = 4
	rule, _ := tech.RuleByName("RULE8")
	g, err := rgraph.Build(clip.Synthesize(opt), rgraph.Options{Rule: rule})
	if err != nil {
		t.Fatal(err)
	}
	const budget, slack = 150 * time.Millisecond, 750 * time.Millisecond
	for _, tc := range []struct {
		term string
		opt  func() (ilp.Options, context.CancelFunc)
	}{
		{"time-limit", func() (ilp.Options, context.CancelFunc) {
			return ilp.Options{TimeLimit: budget}, func() {}
		}},
		{"cancelled", func() (ilp.Options, context.CancelFunc) {
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			return ilp.Options{Ctx: ctx}, cancel
		}},
	} {
		t.Run(tc.term, func(t *testing.T) {
			o, cancel := tc.opt()
			defer cancel()
			start := time.Now()
			sol, err := SolveILP(g, o)
			wall := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if wall > budget+slack {
				t.Errorf("SolveILP returned after %v, budget %v + slack %v", wall, budget, slack)
			}
			if sol.Proven || !sol.Feasible {
				t.Errorf("feasible=%v proven=%v, want the unproven heuristic incumbent", sol.Feasible, sol.Proven)
			}
			if sol.Stats.Termination != tc.term || sol.Stats.LPSolves != 1 {
				t.Errorf("termination %q after %d LP solves, want %q inside the root LP",
					sol.Stats.Termination, sol.Stats.LPSolves, tc.term)
			}
		})
	}
}
