// Command optroute routes a single switchbox clip under one design-rule
// configuration and prints the optimal solution.
//
// Usage:
//
//	optroute -clip clip.json [-rule RULE1|all] [-solver bnb|ilp|heur]
//	         [-par N] [-timeout 30s] [-j N] [-render] [-viashapes]
//	         [-stats] [-quiet] [-converge out.jsonl] [-pprof addr]
//	         [-trace out.jsonl [-flight] [-flight-every N] [-trace-max-mb MB] [-trace-keep K]]
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
// reason); -trace writes a JSON-lines span trace (size-capped and rotated by
// -trace-max-mb/-trace-keep), and -flight additionally records per-node
// search events onto it for cmd/traceview; -converge dumps each
// solve's incumbent/bound convergence trace as JSON lines; -pprof serves
// net/http/pprof plus /metrics and /statusz on the given address.
//
// -calib runs the machine-calibration probe suite before solving and reports
// its score (also exposed as calib_score_ns/calib_ns_<probe> gauges on
// /metrics and a calibration block on /statusz); -sample runs the in-process
// sampling profiler (obs.Sampler, rate via -sample-hz) across the run and
// prints the top self-time functions at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/clip"
	"optrouter/internal/core"
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
	var (
		clipPath   = flag.String("clip", "", "clip JSON file (see internal/clip)")
		synth      = flag.String("synth", "", "synthesize a clip instead: WxHxL, e.g. 7x10x4")
		nets       = flag.Int("nets", 4, "net count for -synth")
		seed       = flag.Int64("seed", 1, "seed for -synth")
		ruleName   = flag.String("rule", "RULE1", "rule configuration (Table 3 name), or \"all\" to sweep every rule")
		solver     = flag.String("solver", "bnb", "solver: bnb (exact), ilp (exact via MILP), heur")
		par        = flag.Int("par", 0, "parallel tree-search workers inside each bnb solve (0 = serial)")
		timeout    = flag.Duration("timeout", 30*time.Second, "solve budget (per rule with -rule all)")
		jobsN      = flag.Int("j", runtime.NumCPU(), "parallel workers for -rule all")
		render     = flag.Bool("render", false, "print an ASCII layer-by-layer rendering")
		shapes     = flag.Bool("viashapes", false, "also allow bar and square via shapes")
		bidir      = flag.Bool("bidir", false, "bidirectional (classic LELE) routing layers")
		viaCost    = flag.Int("viacost", 0, "override via weight in the routing cost (0 = default 4)")
		stats      = flag.Bool("stats", false, "print per-solve telemetry after the result")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line")
		traceOut   = flag.String("trace", "", "write a JSON-lines span trace to this file")
		traceMaxMB = flag.Int("trace-max-mb", 64, "rotate the trace when a file exceeds this size")
		traceKeep  = flag.Int("trace-keep", 4, "trace files retained across rotation (live + archives)")
		flight     = flag.Bool("flight", false,
			"record per-node search events onto the trace (requires -trace; costs solve wall time)")
		flightEvery = flag.Int("flight-every", 1, "sample 1 in N node events after the burst")
		convOut     = flag.String("converge", "", "write per-solve convergence traces (JSON lines) to this file")
		pprofA      = flag.String("pprof", "", "serve net/http/pprof, /metrics and /statusz on this address (e.g. localhost:6060)")
		calibrate   = flag.Bool("calib", false, "run the machine-calibration probe suite before solving and report its score")
		sampleOn    = flag.Bool("sample", false, "run the sampling profiler across the run; print top functions at exit")
		sampleHz    = flag.Int("sample-hz", 100, "sampling-profiler rate in stacks/second (with -sample)")
	)
	flag.Parse()

	var metrics *obs.Registry
	var status *obs.Status
	if *pprofA != "" {
		metrics = obs.NewRegistry()
		status = obs.NewStatus()
		http.Handle("/metrics", obs.MetricsHandler(metrics))
		http.Handle("/statusz", obs.StatusHandler(status))
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "optroute: pprof: %v\n", err)
			}
		}()
	}
	if *calibrate {
		res := calib.Run(calib.Options{})
		fmt.Fprintf(os.Stderr, "optroute: calibration score %.3f ns (suite %.0fms)\n",
			res.ScoreNs, res.WallMS)
		status.SetCalibration(res.ScoreNs, res.ProbesNs())
		if metrics != nil {
			metrics.Gauge("calib_score_ns").Set(res.ScoreNs)
			for name, ns := range res.ProbesNs() {
				metrics.Gauge("calib_ns_" + name).Set(ns)
			}
		}
	}
	if *sampleOn {
		sampler := obs.StartSampler(obs.SamplerOptions{Hz: *sampleHz, Registry: metrics})
		status.SetSampler(sampler)
		defer func() {
			sampler.Stop()
			p := sampler.Profile(10)
			fmt.Fprintf(os.Stderr, "optroute: sampler: %d stacks at %d Hz\n", p.Samples, p.Hz)
			for _, f := range p.Funcs {
				fmt.Fprintf(os.Stderr, "optroute:   self %5d  cum %5d  %s\n", f.Self, f.Cum, f.Fn)
			}
		}()
	}
	if *flight && *traceOut == "" {
		return 0, fmt.Errorf("-flight needs -trace (node events have nowhere to go)")
	}
	var tracer *obs.Tracer
	var flightOpt obs.FlightOptions
	if *traceOut != "" {
		var err error
		tracer, err = obs.NewRotatingTracer(*traceOut, int64(*traceMaxMB)<<20, *traceKeep)
		if err != nil {
			return 0, err
		}
		// Close flushes buffered spans and closes the file on every exit path,
		// including the infeasible exit and Ctrl-C cancellation.
		defer func() {
			tracer.Close()
			if n := tracer.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "optroute: trace dropped %d records (rotation)\n", n)
			}
		}()
		if metrics != nil {
			tracer.SetDropCounter(metrics.Counter("trace_dropped_total"))
		}
		flightOpt = obs.FlightOptions{Enabled: *flight, Every: *flightEvery}
	}
	var conv *report.ConvergenceWriter
	if *convOut != "" {
		f, err := os.Create(*convOut)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		conv = report.NewConvergenceWriter(f)
		defer conv.Flush()
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

	sw := sweepEnv{
		solver: *solver, par: *par, timeout: *timeout, workers: *jobsN,
		shapes: *shapes, bidir: *bidir, viaCost: *viaCost,
		stats: *stats, quiet: *quiet,
		tracer: tracer, flight: flightOpt, conv: conv, metrics: metrics, status: status,
	}
	if *ruleName == "all" {
		return 0, sw.runAllRules(c)
	}

	rule, ok := tech.RuleByName(*ruleName)
	if !ok {
		return 0, fmt.Errorf("unknown rule %q", *ruleName)
	}
	status.SetLabel(rule.Name + " " + c.Name)
	status.SetTotal(1)
	gOpt := rgraph.Options{Rule: rule, Bidirectional: *bidir, ViaCost: *viaCost}
	if *shapes {
		gOpt.ViaShapes = []tech.ViaShape{tech.SingleVia, tech.HBarVia, tech.VBarVia, tech.SquareVia}
	}
	g, err := rgraph.Build(c, gOpt)
	if err != nil {
		return 0, err
	}
	st := g.Stats()
	fmt.Printf("clip %s: %d nets, graph |V|=%d |A|=%d, %d via sites, rule %s\n",
		c.Name, len(c.Nets), st.Verts, st.Arcs, st.ViaSites, rule)

	status.JobStart(0, rule.Name+" "+c.Name)
	var sol *core.Solution
	switch *solver {
	case "bnb":
		sol, err = core.SolveBnB(g, core.BnBOptions{TimeLimit: *timeout, Par: *par, Tracer: tracer, Flight: flightOpt})
	case "ilp":
		sol, err = core.SolveILP(g, ilp.Options{TimeLimit: *timeout, Tracer: tracer, Flight: flightOpt})
	case "heur":
		sol = core.SolveHeuristic(g, core.HeuristicOptions{})
	default:
		err = fmt.Errorf("unknown solver %q", *solver)
	}
	if err != nil {
		return 0, err
	}
	status.JobDone(0, false)
	writeConvergence(conv, c.Name, rule.Name, *solver, sol)

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
			if s := a.Site; s >= 0 {
				vias[s] = true
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

// sweepEnv bundles the flags and sinks the -rule all sweep threads through
// its worker jobs.
type sweepEnv struct {
	solver        string
	par           int
	timeout       time.Duration
	workers       int
	shapes, bidir bool
	viaCost       int
	stats, quiet  bool
	tracer        *obs.Tracer
	flight        obs.FlightOptions
	conv          *report.ConvergenceWriter
	metrics       *obs.Registry
	status        *obs.Status
}

// runAllRules solves the clip under every Table 3 rule configuration on a
// -j worker pool and prints one summary row per rule, in rule order. The
// merged stderr progress line shows jobs done/in-flight/total; Ctrl-C
// cancels in-flight solves cleanly.
func (e sweepEnv) runAllRules(c *clip.Clip) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rules := tech.StandardRules()
	e.status.SetLabel("rule sweep " + c.Name)
	e.status.SetTotal(len(rules))

	type row struct {
		rule tech.RuleConfig
		sol  *core.Solution
	}
	jobs := make([]sched.Job[row], len(rules))
	for i := range rules {
		rule := rules[i]
		jobs[i] = func(jctx context.Context) (row, error) {
			gOpt := rgraph.Options{Rule: rule, Bidirectional: e.bidir, ViaCost: e.viaCost}
			if e.shapes {
				gOpt.ViaShapes = []tech.ViaShape{tech.SingleVia, tech.HBarVia, tech.VBarVia, tech.SquareVia}
			}
			g, err := rgraph.Build(c, gOpt)
			if err != nil {
				return row{}, err
			}
			var sol *core.Solution
			switch e.solver {
			case "bnb":
				sol, err = core.SolveBnB(g, core.BnBOptions{
					TimeLimit: e.timeout, Par: e.par, Tracer: e.tracer, Flight: e.flight, Ctx: jctx})
			case "ilp":
				sol, err = core.SolveILP(g, ilp.Options{
					TimeLimit: e.timeout, Tracer: e.tracer, Flight: e.flight, Ctx: jctx})
			case "heur":
				sol = core.SolveHeuristic(g, core.HeuristicOptions{})
			default:
				err = fmt.Errorf("unknown solver %q", e.solver)
			}
			if err != nil {
				return row{}, err
			}
			writeConvergence(e.conv, c.Name, rule.Name, e.solver, sol)
			return row{rule: rule, sol: sol}, nil
		}
	}

	redraw := obs.NewThrottle(100 * time.Millisecond)
	results := sched.Run(ctx, jobs, sched.Options{
		Workers: e.workers,
		Metrics: e.metrics,
		OnUpdate: func(u sched.Update) {
			switch u.Phase {
			case "start":
				e.status.JobStart(u.Worker, rules[u.Job].Name)
			case "done":
				e.status.JobDone(u.Worker, u.Err != nil)
			}
			if e.quiet {
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
		fmt.Sprintf("clip %s under all rules (%s, %d workers)", c.Name, e.solver, e.workers),
		"Rule", "Feasible", "Proven", "Cost", "WL", "Vias", "Nodes", "Runtime")
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("%s: %w", rules[i].Name, r.Err)
		}
		sol := r.Value.sol
		t.AddRow(r.Value.rule.Name, sol.Feasible, sol.Proven, sol.Cost,
			sol.Wirelength, sol.Vias, sol.Nodes, sol.Runtime.Round(time.Millisecond))
	}
	t.Write(os.Stdout)
	if e.stats {
		for i, r := range results {
			fmt.Printf("%s ", rules[i].Name)
			printStats(r.Value.sol)
		}
	}
	return nil
}

// writeConvergence dumps one solve's convergence trace (nil-safe on every
// argument; heuristic solves have no trace and are skipped).
func writeConvergence(conv *report.ConvergenceWriter, clipName, ruleName, solver string, sol *core.Solution) {
	if conv == nil || sol == nil || len(sol.Stats.BoundTrace) == 0 {
		return
	}
	if err := conv.Write(report.ConvergenceRecord{
		Clip: clipName, Rule: ruleName, Solver: solver,
		Termination: sol.Stats.Termination,
		Feasible:    sol.Feasible, Cost: sol.Cost,
		Nodes: sol.Stats.Nodes, MaxDepth: sol.Stats.MaxDepth,
		WallMS: float64(sol.Stats.Elapsed.Microseconds()) / 1000,
		Trace:  sol.Stats.BoundTrace,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "optroute: converge: %v\n", err)
	}
}

func printStats(sol *core.Solution) {
	st := sol.Stats
	fmt.Printf("stats: nodes=%d max_depth=%d incumbents=%d termination=%s elapsed=%s\n",
		st.Nodes, st.MaxDepth, st.Incumbents, st.Termination, st.Elapsed.Round(time.Millisecond))
	if st.LPSolves > 0 {
		fmt.Printf("       lp_solves=%d lp_iters=%d lp_time=%s\n",
			st.LPSolves, st.LPIters, st.LPTime.Round(time.Millisecond))
	}
	if st.SteinerSolves > 0 || st.DRCChecks > 0 {
		fmt.Printf("       steiner_solves=%d steiner_cache_hits=%d steiner_inherited=%d drc_checks=%d drc_time=%s\n",
			st.SteinerSolves, st.SteinerCacheHits, st.SteinerInherited, st.DRCChecks, st.DRCTime.Round(time.Millisecond))
		fmt.Printf("       bans=%d dives=%d\n", st.BansGenerated, st.Dives)
	}
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
