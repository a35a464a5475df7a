package main

import (
	"fmt"
	"sync"

	"optrouter/internal/core"
	"optrouter/internal/drc"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// checkAnswers verifies one iteration's answers without trusting the solver
// that produced them, and returns one message per failed check:
//
//   - every proven-feasible answer has routes (from the solve itself on the
//     MILP path, else from a fresh core.SolveBnB on a fresh graph) that pass
//     drc.Check and whose arc costs sum to the reported cost;
//   - per clip, a stricter rule (SADP from a lower layer, or more blocked
//     vias) never costs less than a weaker one, and is infeasible whenever
//     the weaker one is.
//
// The routes are recomputed on `workers` goroutines.
func checkAnswers(answers []answer, rules []tech.RuleConfig, workers int) []string {
	var problems []string
	var mu sync.Mutex
	fail := func(format string, args ...interface{}) {
		mu.Lock()
		problems = append(problems, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	jobs := make(chan answer)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range jobs {
				checkRoutes(a, fail)
			}
		}()
	}
	for _, a := range answers {
		if a.proven && a.Feasible && a.err == "" {
			jobs <- a
		}
	}
	close(jobs)
	wg.Wait()

	byClip := map[string]map[string]answer{}
	for _, a := range answers {
		if byClip[a.Clip] == nil {
			byClip[a.Clip] = map[string]answer{}
		}
		byClip[a.Clip][a.Rule] = a
	}
	for name, got := range byClip {
		for _, strong := range rules {
			for _, weak := range rules {
				if strong.Name == weak.Name || !stricter(strong, weak) {
					continue
				}
				s, w := got[strong.Name], got[weak.Name]
				if !s.proven || !w.proven {
					continue
				}
				if s.Feasible && !w.Feasible {
					fail("%s: %s feasible but weaker %s infeasible", name, strong.Name, weak.Name)
				}
				if s.Feasible && w.Feasible && s.Cost < w.Cost {
					fail("%s: %s cost %d below weaker %s cost %d", name, strong.Name, s.Cost, weak.Name, w.Cost)
				}
			}
		}
	}
	return problems
}

// checkRoutes checks one proven-feasible answer's routes.
func checkRoutes(a answer, fail func(string, ...interface{})) {
	g, err := rgraph.Build(a.clip, rgraph.Options{Rule: a.rule})
	if err != nil {
		fail("%s %s: graph: %v", a.Clip, a.Rule, err)
		return
	}
	routes := a.routes
	if routes == nil {
		sol, err := core.SolveBnB(g, core.BnBOptions{TimeLimit: solveBudget})
		if err != nil {
			fail("%s %s: re-solve: %v", a.Clip, a.Rule, err)
			return
		}
		if !sol.Proven || !sol.Feasible || sol.Cost != a.Cost {
			fail("%s %s: re-solve gives feasible=%v proven=%v cost %d, study reported cost %d",
				a.Clip, a.Rule, sol.Feasible, sol.Proven, sol.Cost, a.Cost)
			return
		}
		routes = sol.NetArcs
	}
	if v := drc.Check(g, routes); len(v) > 0 {
		fail("%s %s: %d design-rule violations, first %v", a.Clip, a.Rule, len(v), v[0])
	}
	cost := 0
	for _, arcs := range routes {
		for _, id := range arcs {
			cost += int(g.Arcs[id].Cost)
		}
	}
	if cost != a.Cost {
		fail("%s %s: routes cost %d, reported %d", a.Clip, a.Rule, cost, a.Cost)
	}
}

// stricter reports whether rule a's constraint set contains rule b's
// (Table 3): SADP on every layer b patterns with SADP, and at least as many
// blocked neighbor vias.
func stricter(a, b tech.RuleConfig) bool {
	sadp := !b.HasSADP() || (a.HasSADP() && a.SADPMinLayer <= b.SADPMinLayer)
	return sadp && a.BlockedVias >= b.BlockedVias
}

// sameAnswers compares two iterations' verdicts on the same inputs; the
// solvers are deterministic, so any difference is a failure.
func sameAnswers(a, b []answer) []string {
	if len(a) != len(b) {
		return []string{fmt.Sprintf("iterations disagree: %d vs %d answers", len(a), len(b))}
	}
	var problems []string
	for i := range a {
		x, y := a[i], b[i]
		if x.Clip != y.Clip || x.Rule != y.Rule || x.Feasible != y.Feasible || x.Cost != y.Cost || x.nodes != y.nodes {
			problems = append(problems, fmt.Sprintf("iterations disagree on %s %s: %v/%d/%d nodes vs %v/%d/%d nodes",
				x.Clip, x.Rule, x.Feasible, x.Cost, x.nodes, y.Feasible, y.Cost, y.nodes))
		}
	}
	return problems
}

// checkGolden compares the answers with the committed ones for the
// workload's default seed.
func checkGolden(got []answer, want []answer) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("golden: %d answers, want %d", len(got), len(want))}
	}
	var problems []string
	for i := range got {
		g, w := got[i], want[i]
		if g.Clip != w.Clip || g.Rule != w.Rule || g.Feasible != w.Feasible || (g.Feasible && g.Cost != w.Cost) {
			problems = append(problems, fmt.Sprintf("golden: %s %s feasible=%v cost %d, want %s %s feasible=%v cost %d",
				g.Clip, g.Rule, g.Feasible, g.Cost, w.Clip, w.Rule, w.Feasible, w.Cost))
		}
	}
	return problems
}
