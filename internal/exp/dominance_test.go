package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/drc"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// Rule dominance: a configuration whose constraint set contains another's
// (tech.Stricter) can never have a cheaper optimum, and is infeasible
// wherever the other is. This holds per clip for proven optima and ties the
// entire flow together: extraction, graph construction, constraint emission
// and the exact solver. The cells are plain per-rule solves, independent of
// the study's dominance chain.
func TestRuleDominanceOnExtractedClips(t *testing.T) {
	tb := quickTB(t, tech.N28T12())
	clips := tb.Top
	if len(clips) > 3 {
		clips = clips[:3]
	}
	rules := tech.StandardRules()
	for _, c := range clips {
		costs := map[string]int{}
		feas := map[string]bool{}
		proven := map[string]bool{}
		for _, rule := range rules {
			r, err := SolveClip(c, rule, SolveOptions{PerClipTimeout: 15 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			costs[rule.Name] = r.Cost
			feas[rule.Name] = r.Feasible
			proven[rule.Name] = r.Proven
		}
		for _, sr := range rules {
			for _, wr := range rules {
				strong, weak := sr.Name, wr.Name
				if strong == weak || !tech.Stricter(sr, wr) || !proven[strong] || !proven[weak] {
					continue
				}
				if feas[strong] && !feas[weak] {
					t.Fatalf("clip %s: %s feasible but weaker %s infeasible", c.Name, strong, weak)
				}
				if feas[strong] && feas[weak] && costs[strong] < costs[weak] {
					t.Fatalf("clip %s: %s cost %d < weaker %s cost %d",
						c.Name, strong, costs[strong], weak, costs[weak])
				}
			}
		}
	}
}

// TestDominanceSweepMatchesPlainSolves is the oracle test of the study's
// dominance chain: every cell DeltaCostStudy reports — searched with a
// looser rule's floor and routes, or implied without a search — has the
// Feasible, Proven and Cost of a plain SolveClip of that cell. Every cell's
// routes cost what it reports and pass drc.Check under its own rule and
// under every looser rule, which checks the nesting of the feasible sets
// constructively. The clips are rule-sweep-shaped 7x10x4 clips and 5x6x3
// clips with up to 3 sinks per net (which make infeasible cells), at Par 0
// and Par 2.
func TestDominanceSweepMatchesPlainSolves(t *testing.T) {
	big := []int64{84, 74, 43, 141, 72, 170}
	// Small seed 2 is left out: its plain RULE2 solve ends at the node
	// limit, so it has no proven answer to compare with.
	small := []int64{10, 8, 12, 1, 3, 4, 5, 7, 11}
	if testing.Short() {
		big, small = big[:2], small[:3]
	}
	var clips []*clip.Clip
	for _, seed := range big {
		clips = append(clips, clip.Synthesize(clip.SynthOptions{
			NX: 7, NY: 10, NZ: 4, MinLayer: 1, NumNets: 3, MaxSinks: 2, PinAPs: 2,
			BoundaryFrac: 0.4, ObstacleFrac: 0.05, Seed: seed,
		}))
	}
	for _, seed := range small {
		o := clip.DefaultSynth(seed)
		o.NX, o.NY, o.NZ = 5, 6, 3
		o.NumNets = 1 + int(seed%3)
		o.MaxSinks = 3
		c := clip.Synthesize(o)
		c.Name = fmt.Sprintf("small-%d", seed)
		clips = append(clips, c)
	}
	byName := map[string]*clip.Clip{}
	for _, c := range clips {
		byName[c.Name] = c
	}
	rules := tech.StandardRules()
	ruleOf := map[string]tech.RuleConfig{}
	for _, r := range rules {
		ruleOf[r.Name] = r
	}

	for _, par := range []int{0, 2} {
		opt := SolveOptions{PerClipTimeout: 60 * time.Second, Workers: 2, Par: par}
		_, results, err := DeltaCostStudy(tech.N28T12(), clips, opt)
		if err != nil {
			t.Fatal(err)
		}
		implied, floors, infeasible := 0, 0, 0
		for _, r := range results {
			c, rule := byName[r.Clip], ruleOf[r.Rule]
			plain, err := SolveClip(c, rule, SolveOptions{PerClipTimeout: 60 * time.Second, Par: par})
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Proven {
				t.Fatalf("par %d: %s %s: plain solve unproven, budget too small for the oracle", par, r.Clip, r.Rule)
			}
			if r.Feasible != plain.Feasible || r.Proven != plain.Proven || (r.Feasible && r.Cost != plain.Cost) {
				t.Fatalf("par %d: %s %s (implied by %q): study feasible=%v proven=%v cost=%d, plain solve feasible=%v proven=%v cost=%d",
					par, r.Clip, r.Rule, r.ImpliedBy, r.Feasible, r.Proven, r.Cost, plain.Feasible, plain.Proven, plain.Cost)
			}
			if r.Stats.Par != par {
				t.Fatalf("par %d: %s %s: Stats.Par = %d", par, r.Clip, r.Rule, r.Stats.Par)
			}
			switch {
			case r.Stats.Termination == "implied":
				implied++
			case r.ImpliedBy != "":
				floors++
			}
			if !r.Feasible {
				infeasible++
				continue
			}
			for _, weak := range rules {
				if !tech.Stricter(rule, weak) {
					continue
				}
				g, err := rgraph.Build(c, rgraph.Options{Rule: weak})
				if err != nil {
					t.Fatal(err)
				}
				if v := drc.Check(g, r.Routes); len(v) > 0 {
					t.Fatalf("par %d: %s %s routes violate %s: %v", par, r.Clip, r.Rule, weak.Name, v[0])
				}
				cost := 0
				for _, arcs := range r.Routes {
					for _, a := range arcs {
						cost += int(g.Arcs[a].Cost)
					}
				}
				if cost != r.Cost {
					t.Fatalf("par %d: %s %s routes cost %d under %s graph, reported %d", par, r.Clip, r.Rule, cost, weak.Name, r.Cost)
				}
			}
		}
		// The chain must have been exercised, or the oracle shows nothing.
		if implied == 0 || floors == 0 || infeasible == 0 {
			t.Fatalf("par %d: %d implied, %d floor-stopped, %d infeasible cells; the clip set must exercise all three", par, implied, floors, infeasible)
		}
		t.Logf("par %d: %d cells, %d implied, %d stopped at a floor, %d infeasible", par, len(results), implied, floors, infeasible)
	}
}

// The two exact solvers agree on extracted (not just synthetic) clips.
func TestSolversAgreeOnExtractedClips(t *testing.T) {
	if testing.Short() {
		// The MILP path needs minutes on extracted clips; short runs get
		// solver-agreement coverage from TestDifferentialILPvsBnB's
		// synthetic corpus instead.
		t.Skip("MILP on extracted clips exceeds the short-mode budget")
	}
	tb := quickTB(t, tech.N28T8())
	clips := tb.Top
	if len(clips) > 2 {
		clips = clips[:2]
	}
	rule6, _ := tech.RuleByName("RULE6")
	for _, c := range clips {
		if len(c.Nets) > 4 {
			continue // keep the MILP path tractable
		}
		g, err := rgraph.Build(c, rgraph.Options{Rule: rule6})
		if err != nil {
			t.Fatal(err)
		}
		bs, err := core.SolveBnB(g, core.BnBOptions{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		is, err := core.SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Logf("clip %s: ILP budget exhausted (%v); skipping agreement", c.Name, err)
			continue
		}
		if !bs.Proven || !is.Proven {
			continue
		}
		if bs.Feasible != is.Feasible || (bs.Feasible && bs.Cost != is.Cost) {
			t.Fatalf("clip %s: disagreement bnb=(%v,%d) ilp=(%v,%d)",
				c.Name, bs.Feasible, bs.Cost, is.Feasible, is.Cost)
		}
	}
}

// TestVisitOrder pins the order a clip's sweep visits the rules in, for
// each technology's rule list, and checks that it extends tech.Stricter:
// no rule comes before a strictly looser one.
func TestVisitOrder(t *testing.T) {
	want := map[string]string{
		"N28-12T": "RULE1 RULE5 RULE4 RULE3 RULE2 RULE6 RULE8 RULE7 RULE9 RULE11 RULE10",
		"N7-9T":   "RULE1 RULE5 RULE4 RULE3 RULE6 RULE8",
	}
	for _, tc := range []*tech.Technology{tech.N28T12(), tech.N7T9()} {
		rules := tech.RulesFor(tc)
		order := visitOrder(rules)
		var names []string
		for i, ri := range order {
			names = append(names, rules[ri].Name)
			for _, rj := range order[i+1:] {
				if tech.Stricter(rules[ri], rules[rj]) && !tech.Stricter(rules[rj], rules[ri]) {
					t.Errorf("%s: %s visited before the looser %s", tc.Name, rules[ri].Name, rules[rj].Name)
				}
			}
		}
		if got := strings.Join(names, " "); got != want[tc.Name] {
			t.Errorf("%s: visit order %s, want %s", tc.Name, got, want[tc.Name])
		}
	}
}
