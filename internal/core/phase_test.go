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

// checkPhaseAttribution is the acceptance check for the phase clocks: each
// solve's breakdown must partition its wall time, so the phase sum has to land
// within 10% of Stats.Elapsed (plus a small absolute slack for sub-millisecond
// solves where scheduler noise dominates).
func checkPhaseAttribution(t *testing.T, label string, s SolveStats) {
	t.Helper()
	if len(s.Phases) == 0 {
		t.Fatalf("%s: no phase breakdown recorded", label)
	}
	total := s.Phases.Total()
	diff := s.Elapsed - total
	if diff < 0 {
		diff = -diff
	}
	slack := s.Elapsed/10 + 2*time.Millisecond
	if diff > slack {
		t.Errorf("%s: phase sum %v vs elapsed %v (diff %v > slack %v)\nbreakdown: %v",
			label, total, s.Elapsed, diff, slack, s.Phases.MS())
	}
}

// TestPhaseAttributionSums runs both exact solvers over the differential-test
// style corpus and asserts the per-phase wall-time attribution sums to the
// measured solve time, and that depth/trace telemetry is populated.
func TestPhaseAttributionSums(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	rules := []string{"RULE1", "RULE7", "RULE8"}

	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 4, 5, 3
		opt.NumNets = 3
		opt.MaxSinks = 2
		c := clip.Synthesize(opt)
		c.Tech = "N28-12T"

		for _, rn := range rules {
			rule, ok := tech.RuleByName(rn)
			if !ok {
				t.Fatalf("unknown rule %s", rn)
			}
			t.Run(fmt.Sprintf("seed%d-%s", seed, rn), func(t *testing.T) {
				g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				bnb, err := SolveBnB(g, BnBOptions{TimeLimit: 30 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				checkPhaseAttribution(t, "bnb", bnb.Stats)
				// The parallel search splits each round's wall time over the
				// phases its workers recorded, so its breakdown must also sum
				// to wall and name the same work phases as the serial one.
				par, err := SolveBnB(g, BnBOptions{Par: 2, TimeLimit: 30 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				checkPhaseAttribution(t, "bnb-par2", par.Stats)
				for _, ph := range []string{PhaseSteiner, PhaseDRC} {
					if _, ok := bnb.Stats.Phases[ph]; !ok {
						continue
					}
					if _, ok := par.Stats.Phases[ph]; !ok {
						t.Errorf("bnb-par2: breakdown lacks %q, which the serial breakdown has: %v",
							ph, par.Stats.Phases.MS())
					}
				}
				if len(bnb.Stats.BoundTrace) == 0 {
					t.Error("bnb: empty bound trace")
				} else {
					last := bnb.Stats.BoundTrace[len(bnb.Stats.BoundTrace)-1]
					if bnb.Feasible && last.Incumbent != int64(bnb.Cost) {
						t.Errorf("bnb: terminal trace incumbent %d != cost %d", last.Incumbent, bnb.Cost)
					}
				}

				milp, err := SolveILP(g, ilp.Options{
					TimeLimit: 60 * time.Second,
					LP:        lp.Options{CollectPhases: true},
				})
				if err != nil {
					t.Fatal(err)
				}
				checkPhaseAttribution(t, "milp", milp.Stats)
				if len(milp.Stats.BoundTrace) == 0 {
					t.Error("milp: empty bound trace")
				}
				if milp.Stats.LPIters > 0 && len(milp.Stats.LPPhases) == 0 {
					t.Error("milp: CollectPhases set but no simplex breakdown")
				}
				if milp.Stats.Nodes > 1 && milp.Stats.MaxDepth == 0 {
					t.Errorf("milp: %d nodes but MaxDepth 0", milp.Stats.Nodes)
				}
			})
		}
	}
}
