// Command optroute routes a single switchbox clip under one design-rule
// configuration and prints the optimal solution.
//
// Usage:
//
//	optroute -clip clip.json [-rule RULE1|all] [-solver bnb|ilp|heur]
//	         [-par N] [-timeout 30s] [-j N] [-render] [-viashapes]
//	         [-stats] [-quiet] [-converge out.jsonl] [-pprof addr]
//	         [-trace out.jsonl [-flight]] [-calib] [-sample]
//	optroute -synth 7x10x4 -nets 5 -seed 3   (generate an instance instead)
//
// -solver bnb is the exact production path and -solver ilp its MILP oracle.
// -par N expands the CDC-BnB's fixed-width rounds of open nodes on N workers
// (answers and routes are identical for every N; see README "Parallel
// search").
//
// -rule all sweeps the clip through every Table 3 rule configuration,
// dispatching the independent solves to -j parallel workers (default: all
// CPUs) with a merged done/in-flight/total progress line on stderr (throttled
// to 10 redraws/s; -quiet suppresses it); the summary table is printed in
// rule order regardless of worker count. -stats prints the solver's per-solve
// telemetry (nodes, LP solves, DRC checks, phase breakdown, termination
// reason); -trace writes a JSON-lines span trace (rotated at 64 MB, 4 files
// kept), and -flight additionally records per-node search events onto it for
// cmd/traceview; -converge dumps each
// solve's incumbent/bound convergence trace as JSON lines; -pprof serves
// net/http/pprof plus /metrics and /statusz on the given address.
//
// -calib runs the machine-calibration probe suite before solving and reports
// its score (also exposed as calib_score_ns/calib_ns_<probe> gauges on
// /metrics and a calibration block on /statusz); -sample runs the in-process
// sampling profiler (obs.Sampler, 100 Hz) across the run and prints the top
// self-time functions at exit. Ctrl-C cancels in-flight solves and still
// flushes every sink. The solver and observability flags are declared once,
// in exp.Session, for all three solving commands.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/exp"
	"optrouter/internal/ilp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
	"optrouter/internal/rgraph"
	"optrouter/internal/sched"
	"optrouter/internal/tech"
)

func main() {
	// run owns all teardown in defers (trace close, converge flush), so a
	// proven-infeasible exit (code 2) or an error still leaves complete
	// JSONL files behind — os.Exit lives only here, after run returns.
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optroute: %v\n", err)
		os.Exit(1)
	}
	if code != 0 {
		os.Exit(code)
	}
}

func run() (int, error) {
	s := exp.BindFlags(flag.CommandLine, "optroute", 30*time.Second)
	s.BindObservability(flag.CommandLine)
	var (
		clipPath = flag.String("clip", "", "clip JSON file (see internal/clip)")
		synth    = flag.String("synth", "", "synthesize a clip instead: WxHxL, e.g. 7x10x4")
		nets     = flag.Int("nets", 4, "net count for -synth")
		seed     = flag.Int64("seed", 1, "seed for -synth")
		ruleName = flag.String("rule", "RULE1", "rule configuration (Table 3 name), or \"all\" to sweep every rule")
		solver   = flag.String("solver", "bnb", "solver: bnb (exact), ilp (exact via MILP), heur")
		render   = flag.Bool("render", false, "print an ASCII layer-by-layer rendering")
		shapes   = flag.Bool("viashapes", false, "also allow bar and square via shapes")
		bidir    = flag.Bool("bidir", false, "bidirectional (classic LELE) routing layers")
		viaCost  = flag.Int("viacost", 0, "override via weight in the routing cost (0 = default 4)")
		stats    = flag.Bool("stats", false, "print per-solve telemetry after the result")
		quiet    = flag.Bool("quiet", false, "suppress the live progress line")
	)
	flag.Parse()
	defer s.Close()
	if err := s.Open(false); err != nil {
		return 0, err
	}

	var c *clip.Clip
	switch {
	case *clipPath != "":
		f, err := os.Open(*clipPath)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		c, err = clip.ReadJSON(f)
		if err != nil {
			return 0, err
		}
	case *synth != "":
		var w, h, l int
		if _, err := fmt.Sscanf(*synth, "%dx%dx%d", &w, &h, &l); err != nil {
			return 0, fmt.Errorf("bad -synth %q: %v", *synth, err)
		}
		opt := clip.DefaultSynth(*seed)
		opt.NX, opt.NY, opt.NZ = w, h, l
		opt.NumNets = *nets
		c = clip.Synthesize(opt)
	default:
		return 0, fmt.Errorf("need -clip or -synth; see -h")
	}

	r := router{
		Session: s, solver: *solver,
		shapes: *shapes, bidir: *bidir, viaCost: *viaCost,
		stats: *stats, quiet: *quiet,
	}
	// Ctrl-C cancels in-flight solves; run then returns through the deferred
	// Close, so the trace and convergence files are still complete.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *ruleName == "all" {
		return 0, r.runAllRules(ctx, c)
	}

	rule, ok := tech.RuleByName(*ruleName)
	if !ok {
		return 0, fmt.Errorf("unknown rule %q", *ruleName)
	}
	s.Status.SetLabel(rule.Name + " " + c.Name)
	s.Status.SetTotal(1)
	s.Status.JobStart(0, rule.Name+" "+c.Name)
	g, sol, err := r.solve(ctx, c, rule)
	if err != nil {
		return 0, err
	}
	s.Status.JobDone(0, false)
	st := g.Stats()
	fmt.Printf("clip %s: %d nets, graph |V|=%d |A|=%d, %d via sites, rule %s\n",
		c.Name, len(c.Nets), st.Verts, st.Arcs, st.ViaSites, rule)

	if !sol.Feasible {
		verdict := "infeasible (proven)"
		if !sol.Proven {
			verdict = "no solution found within budget"
		}
		fmt.Println(verdict)
		if *stats {
			printStats(sol)
		}
		return 2, nil
	}
	proof := "optimal"
	if !sol.Proven {
		proof = "feasible (optimality not proven)"
	}
	fmt.Printf("%s: %s\n", proof, sol)
	for k, arcs := range sol.NetArcs {
		wl, vias := 0, map[int32]bool{}
		for _, aid := range arcs {
			a := g.Arcs[aid]
			if a.Kind == rgraph.Wire {
				wl++
			}
			if site := a.Site; site >= 0 {
				vias[site] = true
			}
		}
		fmt.Printf("  net %-8s wl=%-3d vias=%d\n", c.Nets[k].Name, wl, len(vias))
	}
	if *stats {
		printStats(sol)
	}
	if *render {
		fmt.Println()
		fmt.Print(core.RenderASCII(g, sol))
	}
	return 0, nil
}

// router is one optroute run: the shared session plus the flags that pick
// the routing graph and the engine.
type router struct {
	*exp.Session
	solver        string
	shapes, bidir bool
	viaCost       int
	stats, quiet  bool
}

// solve builds c's routing graph under rule, solves it with the selected
// engine and appends the solve's convergence record. The single-rule run and
// every job of the -rule all sweep go through it.
func (r router) solve(ctx context.Context, c *clip.Clip, rule tech.RuleConfig) (*rgraph.Graph, *core.Solution, error) {
	gOpt := rgraph.Options{Rule: rule, Bidirectional: r.bidir, ViaCost: r.viaCost}
	if r.shapes {
		gOpt.ViaShapes = []tech.ViaShape{tech.SingleVia, tech.HBarVia, tech.VBarVia, tech.SquareVia}
	}
	g, err := rgraph.Build(c, gOpt)
	if err != nil {
		return nil, nil, err
	}
	o := r.Solve
	var sol *core.Solution
	switch r.solver {
	case "bnb":
		sol, err = core.SolveBnB(g, core.BnBOptions{
			TimeLimit: o.PerClipTimeout, Par: o.Par, Tracer: o.Tracer, Flight: o.Flight, Ctx: ctx})
	case "ilp":
		sol, err = core.SolveILP(g, ilp.Options{
			TimeLimit: o.PerClipTimeout, Tracer: o.Tracer, Flight: o.Flight, Ctx: ctx})
	case "heur":
		sol = core.SolveHeuristic(g, core.HeuristicOptions{})
	default:
		err = fmt.Errorf("unknown solver %q", r.solver)
	}
	if err != nil {
		return nil, nil, err
	}
	// Heuristic solves have no convergence trace.
	if r.Converge != nil && len(sol.Stats.BoundTrace) > 0 {
		rec := report.NewConvergenceRecord(c.Name, rule.Name, r.solver, sol.Feasible, sol.Cost, sol.Stats)
		if err := r.Converge.Write(rec); err != nil {
			fmt.Fprintf(os.Stderr, "optroute: converge: %v\n", err)
		}
	}
	return g, sol, nil
}

// runAllRules solves the clip under every Table 3 rule configuration on a
// -j worker pool and prints one summary row per rule, in rule order. The
// merged stderr progress line shows jobs done/in-flight/total; cancelling
// ctx (Ctrl-C) stops in-flight solves cleanly.
func (r router) runAllRules(ctx context.Context, c *clip.Clip) error {
	rules := tech.StandardRules()
	r.Status.SetLabel("rule sweep " + c.Name)
	r.Status.SetTotal(len(rules))

	jobs := make([]sched.Job[*core.Solution], len(rules))
	for i := range rules {
		rule := rules[i]
		jobs[i] = func(jctx context.Context) (*core.Solution, error) {
			_, sol, err := r.solve(jctx, c, rule)
			return sol, err
		}
	}

	redraw := obs.NewThrottle(100 * time.Millisecond)
	results := sched.Run(ctx, jobs, sched.Options{
		Workers: r.Solve.Workers,
		Metrics: r.Solve.Metrics,
		OnUpdate: func(u sched.Update) {
			switch u.Phase {
			case "start":
				r.Status.JobStart(u.Worker, rules[u.Job].Name)
			case "done":
				r.Status.JobDone(u.Worker, u.Err != nil)
			}
			if r.quiet {
				return
			}
			// Serialized by the scheduler: one coherent line, never garbled.
			// Redraws are throttled; the final completion always prints.
			if u.Done != u.Total && !redraw.Allow() {
				return
			}
			fmt.Fprintf(os.Stderr, "\r\x1b[K[%d/%d in-flight=%d] %s",
				u.Done, u.Total, u.InFlight, rules[u.Job].Name)
			if u.Done == u.Total {
				fmt.Fprintln(os.Stderr)
			}
		},
	})

	t := report.NewTable(
		fmt.Sprintf("clip %s under all rules (%s, %d workers)", c.Name, r.solver, r.Solve.Workers),
		"Rule", "Feasible", "Proven", "Cost", "WL", "Vias", "Nodes", "Runtime")
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("%s: %w", rules[i].Name, res.Err)
		}
		sol := res.Value
		t.AddRow(rules[i].Name, sol.Feasible, sol.Proven, sol.Cost,
			sol.Wirelength, sol.Vias, sol.Nodes, sol.Runtime.Round(time.Millisecond))
	}
	t.Write(os.Stdout)
	if r.stats {
		for i, res := range results {
			fmt.Printf("%s ", rules[i].Name)
			printStats(res.Value)
		}
	}
	return nil
}

func printStats(sol *core.Solution) {
	st := sol.Stats
	fmt.Printf("stats: max_depth=%d termination=%s elapsed=%s lp_time=%s drc_time=%s\n",
		st.MaxDepth, st.Termination, st.Elapsed.Round(time.Millisecond),
		st.LPTime.Round(time.Millisecond), st.DRCTime.Round(time.Millisecond))
	fmt.Print("       counters:")
	st.EachNonzero(func(name string, v int64) { fmt.Printf(" %s=%d", name, v) })
	fmt.Println()
	if st.Par > 0 {
		fmt.Printf("       par=%d nodes_per_worker=%v steals=%d\n",
			st.Par, st.NodesPerWorker, st.Steals)
	}
	if !st.LP.IsZero() {
		fmt.Printf("       lp: %s\n", st.LP)
	}
	printPhases("phases", st.Phases)
	printPhases("lp_phases", st.LPPhases)
}

// printPhases renders a wall-time breakdown as "name=12.3ms" pairs in sorted
// phase order.
func printPhases(label string, b obs.Breakdown) {
	if len(b) == 0 {
		return
	}
	fmt.Printf("       %s:", label)
	ms := b.MS()
	for _, name := range b.Names() {
		fmt.Printf(" %s=%.1fms", name, ms[name])
	}
	fmt.Println()
}
