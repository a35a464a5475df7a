package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// bigSynthGraph builds a larger clip than the differential corpus (6x7x4)
// so the parallel engine has a real tree to distribute (seed 3 under RULE8
// solves in a few hundred nodes).
func bigSynthGraph(tb testing.TB, seed int64, ruleName string) *rgraph.Graph {
	tb.Helper()
	opt := clip.DefaultSynth(seed)
	opt.NX, opt.NY, opt.NZ = 6, 7, 4
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

// deterministicStats projects SolveStats onto the fields the parallel engine
// guarantees identical for every worker count. Scheduling-dependent fields
// (cache hits, per-worker splits, wall times) are excluded by
// construction.
func deterministicStats(s SolveStats) map[string]int {
	return map[string]int{
		"nodes":          s.Nodes,
		"max_depth":      s.MaxDepth,
		"incumbents":     s.Incumbents,
		"bans_generated": s.BansGenerated,
		"drc_checks":     s.DRCChecks,
		"dives":          s.Dives,
		// Whether a trial inherits a route depends only on the expanded
		// node, so the count is deterministic too.
		"steiner_inherited": s.SteinerInherited,
	}
}

// TestParBnBDeterministicAcrossWorkers is the parallel search's determinism
// golden: the CDC-BnB's round loop must return byte-identical routes, the
// same objective/proof and the same deterministic search statistics for
// Par = 1, 2 and 8 — on a Steiner-heavy SADP case and a plain (MILP-friendly)
// case.
func TestParBnBDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		name  string
		build func(tb testing.TB) *rgraph.Graph
	}{
		{"steiner-heavy-6x7x4-s3-RULE8", func(tb testing.TB) *rgraph.Graph { return bigSynthGraph(tb, 3, "RULE8") }},
		{"milp-heavy-4x5x3-s10-RULE1", func(tb testing.TB) *rgraph.Graph { return synthGraph(tb, 10, "RULE1") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build(t)
			var ref *Solution
			for _, par := range []int{1, 2, 8} {
				sol, err := SolveBnB(g, BnBOptions{Par: par, TimeLimit: 60 * time.Second})
				if err != nil {
					t.Fatalf("par=%d: %v", par, err)
				}
				if !sol.Proven {
					t.Fatalf("par=%d: no proof within budget (termination %s)", par, sol.Stats.Termination)
				}
				if sol.Stats.Par != par {
					t.Errorf("par=%d: Stats.Par = %d", par, sol.Stats.Par)
				}
				sum := 0
				for _, n := range sol.Stats.NodesPerWorker {
					sum += n
				}
				if sum != sol.Stats.Nodes {
					t.Errorf("par=%d: NodesPerWorker sums to %d, Nodes = %d", par, sum, sol.Stats.Nodes)
				}
				if ref == nil {
					ref = sol
					continue
				}
				if sol.Feasible != ref.Feasible || sol.Cost != ref.Cost {
					t.Fatalf("par=%d: (feasible=%v cost=%d), par=1 got (feasible=%v cost=%d)",
						par, sol.Feasible, sol.Cost, ref.Feasible, ref.Cost)
				}
				if !reflect.DeepEqual(sol.NetArcs, ref.NetArcs) {
					t.Errorf("par=%d: routes differ from par=1 (determinism violation)", par)
				}
				if got, want := deterministicStats(sol.Stats), deterministicStats(ref.Stats); !reflect.DeepEqual(got, want) {
					t.Errorf("par=%d: deterministic stats differ from par=1:\n got %v\nwant %v", par, got, want)
				}
			}
		})
	}
}

// TestBnBNodeBudgetAtEveryWidth: the node budget caps the search at every
// round width. A round pops at most MaxNodes minus the nodes already
// explored, so neither the width-1 serial rounds nor the fixed-width
// parallel ones overshoot it.
func TestBnBNodeBudgetAtEveryWidth(t *testing.T) {
	g := bigSynthGraph(t, 3, "RULE8")
	const budget = 40
	for _, par := range []int{0, 1, 2} {
		sol, err := SolveBnB(g, BnBOptions{Par: par, MaxNodes: budget})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if sol.Stats.Nodes > budget || sol.Nodes > budget {
			t.Errorf("par=%d: explored %d nodes, budget %d", par, sol.Stats.Nodes, budget)
		}
		if sol.Proven {
			t.Errorf("par=%d: %d-node budget claims a proof (termination %s)", par, budget, sol.Stats.Termination)
		}
	}
}

// TestParBnBMatchesSerial: the parallel engine and the classic serial engine
// explore different trees but must agree on feasibility and optimal cost
// across the differential corpus.
func TestParBnBMatchesSerial(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		for _, rn := range []string{"RULE1", "RULE7", "RULE8"} {
			t.Run(fmt.Sprintf("seed%d-%s", seed, rn), func(t *testing.T) {
				g := synthGraph(t, seed, rn)
				serial, err := SolveBnB(g, BnBOptions{TimeLimit: 60 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				par, err := SolveBnB(g, BnBOptions{Par: 4, TimeLimit: 60 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				if !serial.Proven || !par.Proven {
					t.Skipf("no proof within budget (serial=%v par=%v)", serial.Proven, par.Proven)
				}
				if serial.Feasible != par.Feasible {
					t.Fatalf("feasibility disagreement: serial=%v par=%v", serial.Feasible, par.Feasible)
				}
				if serial.Feasible && serial.Cost != par.Cost {
					t.Fatalf("optimal cost disagreement: serial=%d par=%d", serial.Cost, par.Cost)
				}
			})
		}
	}
}

// TestParBnBFlightRecorder runs the parallel engine with per-node recording:
// workers emit node events concurrently, and the flight accounting
// (seen = kept + dropped, kept = events in the trace) must still balance.
func TestParBnBFlightRecorder(t *testing.T) {
	g := synthGraph(t, 3, "RULE7")
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	sol, err := SolveBnB(g, BnBOptions{
		Par:    4,
		Tracer: tr,
		Flight: obs.FlightOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if probs := obs.ValidateTrace(recs); len(probs) != 0 {
		t.Fatalf("trace not well-formed: %v", probs)
	}
	tree, err := obs.BuildTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	var solve *obs.TraceNode
	nodeEvents := 0
	tree.Walk(func(n *obs.TraceNode) {
		if n.Name == "bnb.solve" {
			solve = n
		}
		if n.Event && n.Name == "node" {
			nodeEvents++
		}
	})
	if solve == nil {
		t.Fatal("no bnb.solve span in trace")
	}
	if par, _ := solve.AttrFloat("par"); int(par) != 4 {
		t.Errorf("solve span par attr = %v, want 4", par)
	}
	if nodeEvents == 0 {
		t.Fatal("flight recorder produced no node events")
	}
	seen, _ := solve.AttrFloat("flight_seen")
	kept, _ := solve.AttrFloat("flight_kept")
	dropped, _ := solve.AttrFloat("flight_dropped")
	if int(kept) != nodeEvents {
		t.Errorf("flight_kept = %v, but trace holds %d node events", kept, nodeEvents)
	}
	if int(seen) != int(kept)+int(dropped) {
		t.Errorf("flight accounting under concurrency: seen %v != kept %v + dropped %v", seen, kept, dropped)
	}
	if sol.Nodes == 0 {
		t.Error("solve explored no nodes")
	}
}
