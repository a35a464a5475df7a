// Command beoleval runs the paper's end-to-end BEOL design-rule evaluation
// flow (Fig. 6): synthesize benchmark designs, place and route them, extract
// and rank routing clips, solve each top clip optimally under RULE1..RULE11,
// and report Table 2, Fig. 8 and Fig. 10 data.
//
// Usage:
//
//	beoleval [-tech N28-12T|N28-8T|N7-9T|all] [-full] [-timeout 10s] [-j N]
//	         [-par N] [-portfolio]
//	         [-rules] [-table2] [-fig8] [-fig10] [-validate] [-csv dir]
//	         [-stats] [-quiet] [-converge out.jsonl]
//	         [-trace out.jsonl [-flight] [-flight-every N] [-trace-max-mb MB] [-trace-keep K]]
//	         [-pprof addr]
//
// With no selection flags, everything runs. -j dispatches the independent
// (clip, rule) solves to N parallel workers (default: all CPUs); outputs are
// assembled in study order, so CSVs and tables are byte-identical for any N.
// -par N additionally parallelizes each solve's branch-and-bound tree over N
// workers (the engine is deterministic: outputs are identical for any N),
// and -portfolio races the CDC-BnB against the MILP engine per solve.
// -stats emits end-of-run metrics JSON (to <csvdir>/metrics.json when -csv
// is set, stdout otherwise) and a live merged progress line on stderr
// (done/in-flight/total across all workers; -quiet suppresses the line);
// -trace records a JSON-lines span trace of every solve (size-capped and
// rotated by -trace-max-mb/-trace-keep; -flight adds per-node search events
// for cmd/traceview); -converge dumps one
// JSON line per solve with its incumbent/bound convergence trace; -pprof
// serves net/http/pprof plus /metrics (Prometheus text exposition) and
// /statusz (live sweep state) on the given address. -calib runs the
// machine-calibration probe suite before the sweep (score on stderr, gauges
// on /metrics, block on /statusz); -sample profiles the sweep with the
// in-process sampling profiler (-sample-hz rate) and prints the top
// self-time functions at exit. Interrupt (Ctrl-C)
// cancels in-flight solves, drains cleanly and still flushes every sink.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/exp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
	"optrouter/internal/tech"
)

func main() {
	// All teardown (trace flush/close, converge flush) is deferred inside
	// run, so every exit path — including a SIGINT-cancelled sweep — leaves
	// complete, newline-terminated JSONL files behind.
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "beoleval: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		techName   = flag.String("tech", "all", "technology: N28-12T, N28-8T, N7-9T or all")
		full       = flag.Bool("full", false, "use the large testbed (paper-scale clip geometry; slower)")
		insts      = flag.Int("insts", 0, "override design instance count (0 = preset)")
		layers     = flag.Int("nz", 0, "override clip stack depth (0 = preset)")
		topK       = flag.Int("topk", 0, "override top-K clip selection (0 = preset)")
		maxNets    = flag.Int("maxnets", 0, "override per-clip net cap (0 = preset)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-clip solve budget")
		jobs       = flag.Int("j", runtime.NumCPU(), "parallel solve workers (1 = serial; output is identical for any value)")
		par        = flag.Int("par", 0, "parallel tree-search workers inside each solve (0 = serial engine; output is identical for any value)")
		portfolio  = flag.Bool("portfolio", false, "race the CDC-BnB and MILP engines on every solve (first proof wins)")
		rules      = flag.Bool("rules", false, "print Table 3 rule configurations")
		table2     = flag.Bool("table2", false, "print Table 2 benchmark matrix")
		fig8       = flag.Bool("fig8", false, "print Fig. 8 pin-cost distributions")
		fig10      = flag.Bool("fig10", false, "print Fig. 10 delta-cost study")
		fig9       = flag.Bool("fig9", false, "print Fig. 9 pin-access analysis")
		runtimeF   = flag.Bool("runtime", false, "print the Sec. 5 runtime study")
		validate   = flag.Bool("validate", false, "run the Sec. 4.2 validation vs the heuristic router")
		csvDir     = flag.String("csv", "", "also write figure data as CSV into this directory")
		stats      = flag.Bool("stats", false, "collect per-solve metrics; emit metrics JSON and a live progress line")
		quiet      = flag.Bool("quiet", false, "suppress the live progress line (metrics are still collected)")
		traceOut   = flag.String("trace", "", "write a JSON-lines span trace of every solve to this file")
		traceMaxMB = flag.Int("trace-max-mb", 64, "rotate the trace when a file exceeds this size")
		traceKeep  = flag.Int("trace-keep", 4, "trace files retained across rotation (live + archives)")
		flight     = flag.Bool("flight", false,
			"record per-node search events onto the trace (requires -trace; costs solve wall time)")
		flightEvery = flag.Int("flight-every", 1, "sample 1 in N node events after the burst")
		convOut     = flag.String("converge", "", "write per-solve convergence traces (JSON lines) to this file")
		pprofA      = flag.String("pprof", "", "serve net/http/pprof, /metrics and /statusz on this address (e.g. localhost:6060)")
		calibrate   = flag.Bool("calib", false, "run the machine-calibration probe suite before the sweep and report its score")
		sampleOn    = flag.Bool("sample", false, "run the sampling profiler across the sweep; print top functions at exit")
		sampleHz    = flag.Int("sample-hz", 100, "sampling-profiler rate in stacks/second (with -sample)")
	)
	flag.Parse()

	solve := exp.SolveOptions{PerClipTimeout: *timeout, Workers: *jobs, Par: *par, Portfolio: *portfolio}
	var metrics *obs.Registry
	if *stats || *pprofA != "" {
		// /metrics needs a registry even without -stats; the end-of-run
		// metrics document stays opt-in.
		metrics = obs.NewRegistry()
		solve.Metrics = metrics
	}
	var status *obs.Status
	if *pprofA != "" {
		status = obs.NewStatus()
		if *portfolio {
			status.EnableLP()
		}
		http.Handle("/metrics", obs.MetricsHandler(metrics))
		http.Handle("/statusz", obs.StatusHandler(status))
		go func() {
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				fmt.Fprintf(os.Stderr, "beoleval: pprof: %v\n", err)
			}
		}()
	}
	if *calibrate {
		res := calib.Run(calib.Options{})
		fmt.Fprintf(os.Stderr, "beoleval: calibration score %.3f ns (suite %.0fms)\n",
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
			fmt.Fprintf(os.Stderr, "beoleval: sampler: %d stacks at %d Hz\n", p.Samples, p.Hz)
			for _, f := range p.Funcs {
				fmt.Fprintf(os.Stderr, "beoleval:   self %5d  cum %5d  %s\n", f.Self, f.Cum, f.Fn)
			}
		}()
	}

	all := !*rules && !*table2 && !*fig8 && !*fig10 && !*fig9 && !*runtimeF && !*validate
	if *rules || all {
		printRules()
	}
	if *runtimeF || all {
		if err := printRuntime(); err != nil {
			return err
		}
	}

	var techs []*tech.Technology
	switch *techName {
	case "all":
		techs = tech.AllTechnologies()
	default:
		for _, t := range tech.AllTechnologies() {
			if t.Name == *techName {
				techs = []*tech.Technology{t}
			}
		}
		if len(techs) == 0 {
			return fmt.Errorf("unknown technology %q", *techName)
		}
	}

	perTech := all || *table2 || *fig8 || *fig10 || *fig9 || *validate
	if !perTech {
		return nil
	}

	opt := exp.QuickTestbed()
	if *full {
		opt = exp.FullTestbed()
	}
	if *insts > 0 {
		for i := range opt.Designs {
			opt.Designs[i].Size = *insts
		}
	}
	if *layers > 0 {
		opt.ClipNZ = *layers
	}
	if *topK > 0 {
		opt.TopK = *topK
	}
	if *maxNets > 0 {
		opt.MaxNets = *maxNets
	}
	// Ctrl-C cancels the sweep: in-flight solves stop at their next node,
	// queued jobs drain, and the run exits with the context error (through
	// run's deferred teardown, so trace/converge files are still flushed).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *flight && *traceOut == "" {
		return fmt.Errorf("-flight needs -trace (node events have nowhere to go)")
	}
	if *traceOut != "" {
		tr, err := obs.NewRotatingTracer(*traceOut, int64(*traceMaxMB)<<20, *traceKeep)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		// Close flushes buffered spans and closes the file on every exit path.
		defer func() {
			tr.Close()
			if n := tr.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "beoleval: trace dropped %d records (rotation)\n", n)
			}
		}()
		if metrics != nil {
			tr.SetDropCounter(metrics.Counter("trace_dropped_total"))
		}
		solve.Tracer = tr
		solve.Flight = obs.FlightOptions{Enabled: *flight, Every: *flightEvery}
	}
	var conv *report.ConvergenceWriter
	if *convOut != "" {
		f, err := os.Create(*convOut)
		if err != nil {
			return fmt.Errorf("converge: %w", err)
		}
		defer f.Close()
		conv = report.NewConvergenceWriter(f)
		defer conv.Flush()
	}

	// Progress fan-out: the throttled live line (unless -quiet), the /statusz
	// tracker and the convergence dump all feed off the same serialized
	// per-clip events.
	var sinks []func(exp.ClipProgress)
	if *stats && !*quiet {
		sinks = append(sinks, progressLine(os.Stderr))
	}
	if status != nil {
		sinks = append(sinks, statusSink(status))
	}
	if conv != nil {
		sinks = append(sinks, convergeSink(conv))
	}
	if len(sinks) > 0 {
		solve.Progress = func(p exp.ClipProgress) {
			for _, s := range sinks {
				s(p)
			}
		}
	}
	runStart := time.Now()

	needTB := all || *table2 || *fig8 || *fig10 || *validate
	for _, t := range techs {
		fmt.Printf("=== %s ===\n", t.Name)
		status.SetLabel(t.Name)
		var tb *exp.Testbed
		if needTB {
			var err error
			tb, err = exp.BuildTestbed(t, opt)
			if err != nil {
				return err
			}
		}
		if *table2 || all {
			printTable2(tb)
		}
		if *fig8 || all {
			printFig8(tb, *csvDir)
		}
		if *fig10 || all {
			if err := printFig10(ctx, tb, solve, *csvDir); err != nil {
				return err
			}
		}
		if *fig9 || all {
			if err := printFig9(t, solve); err != nil {
				return err
			}
		}
		if *validate || all {
			if err := printValidation(tb, solve); err != nil {
				return err
			}
		}
	}

	if *stats {
		if err := writeMetrics(metrics, *csvDir, time.Since(runStart)); err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
	}
	return nil
}

// statusSink feeds the /statusz tracker from per-clip lifecycle events.
func statusSink(s *obs.Status) func(exp.ClipProgress) {
	return func(p exp.ClipProgress) {
		switch p.Phase {
		case "start":
			s.SetTotal(p.Total)
			s.JobStart(p.Worker, p.Rule+" "+p.Clip)
		case "done":
			s.JobDone(p.Worker, p.Result != nil && p.Result.Err != "")
			if r := p.Result; r != nil {
				s.AddLPStats(obs.LPStatDelta{
					CandidateHits:          r.Stats.LPCandidateHits,
					RefResets:              r.Stats.LPRefResets,
					DualBoundFlips:         r.Stats.LPDualBoundFlips,
					PresolveRows:           r.Stats.PresolveRows,
					PresolveCols:           r.Stats.PresolveCols,
					RefactorEtaLen:         r.Stats.LPRefactorEtaLen,
					RefactorFill:           r.Stats.LPRefactorFill,
					RefactorPivotQuality:   r.Stats.LPRefactorPivotQuality,
					RefactorUpdateRejected: r.Stats.LPRefactorUpdateRejected,
				})
			}
		}
	}
}

// convergeSink appends one convergence record per finished solve.
func convergeSink(c *report.ConvergenceWriter) func(exp.ClipProgress) {
	return func(p exp.ClipProgress) {
		if p.Phase != "done" || p.Result == nil || p.Result.Err != "" {
			return
		}
		r := p.Result
		if err := c.Write(report.ConvergenceRecord{
			Clip: r.Clip, Rule: r.Rule, Solver: "bnb",
			Termination: r.Stats.Termination,
			Feasible:    r.Feasible, Cost: r.Cost,
			Nodes: r.Stats.Nodes, MaxDepth: r.Stats.MaxDepth,
			WallMS: float64(r.Runtime.Microseconds()) / 1000,
			Trace:  r.Stats.BoundTrace,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "beoleval: converge: %v\n", err)
		}
	}
}

// progressLine returns a ClipProgress sink that keeps one live merged
// status line on w. With parallel workers many solves are in flight at
// once, so the line leads with the study-wide "done/total in-flight=k"
// aggregate, then shows the reporting solve's study position and state.
// Each finished solve is flushed as a newline-terminated summary. The study
// serializes the callback, so concurrent workers cannot garble the line;
// in-place redraws are throttled to at most 10 per second so fast parallel
// sweeps don't saturate the terminal ("done" summaries always print).
func progressLine(w *os.File) func(exp.ClipProgress) {
	redraw := obs.NewThrottle(100 * time.Millisecond)
	return func(p exp.ClipProgress) {
		if p.Phase != "done" && !redraw.Allow() {
			return
		}
		ib := func(v int64) string {
			if v < 0 {
				return "-"
			}
			return fmt.Sprintf("%d", v)
		}
		agg := fmt.Sprintf("%d/%d", p.Done, p.Total)
		if p.InFlight > 1 {
			agg += fmt.Sprintf(" ~%d", p.InFlight)
		}
		switch p.Phase {
		case "start":
			fmt.Fprintf(w, "\r\x1b[K[%s] #%d %s %s ...", agg, p.Index, p.Rule, p.Clip)
		case "progress":
			fmt.Fprintf(w, "\r\x1b[K[%s] #%d %s %s %6.1fs nodes=%d inc=%s bnd=%s",
				agg, p.Index, p.Rule, p.Clip, p.Elapsed.Seconds(),
				p.Nodes, ib(p.Incumbent), ib(p.Bound))
		case "done":
			verdict := "infeasible"
			if p.Result != nil && p.Result.Feasible {
				verdict = fmt.Sprintf("cost=%d", p.Result.Cost)
				if !p.Result.Proven {
					verdict += " (unproven)"
				}
			} else if p.Result != nil && !p.Result.Proven {
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "\r\x1b[K[%s] #%d %s %s %6.1fs nodes=%d %s\n",
				agg, p.Index, p.Rule, p.Clip, p.Elapsed.Seconds(), p.Nodes, verdict)
		}
	}
}

// writeMetrics emits the run-wide metrics JSON: next to the result CSVs when
// -csv is set, to stdout otherwise.
func writeMetrics(m *obs.Registry, csvDir string, wall time.Duration) error {
	doc := report.NewMetrics(m.Snapshot())
	doc.Set("run_wall_ms", wall.Milliseconds())
	if csvDir == "" {
		return report.WriteMetrics(os.Stdout, doc)
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, "metrics.json"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(os.Stderr, "metrics: %s\n", f.Name())
	return report.WriteMetrics(f, doc)
}

func printRuntime() error {
	recs, err := exp.RuntimeStudy(exp.RuntimeStudyOptions{})
	if err != nil {
		return err
	}
	t := report.NewTable("Sec 5 runtime study (reduced depth; paper: 842->1047s, 925->1340s on CPLEX)",
		"Switchbox", "Rules", "Feasible", "Proven", "Cost", "Nodes", "Runtime")
	for _, r := range recs {
		rules := "none"
		if r.WithRules {
			rules = "SADP+via"
		}
		t.AddRow(r.Switchbox, rules, r.Feasible, r.Proven, r.Cost, r.Nodes,
			r.Runtime.Round(time.Millisecond))
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func printFig9(tt *tech.Technology, solve exp.SolveOptions) error {
	results, err := exp.PinAccessStudy(tt, "NAND2X1", solve)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Fig. 9: NAND2X1 pin escape (%s)", tt.Name),
		"Rule", "Feasible", "Cost", "Vias")
	for _, r := range results {
		t.AddRow(r.Rule, r.Feasible, r.Cost, r.Vias)
	}
	t.Write(os.Stdout)
	fmt.Println()
	return nil
}

func printRules() {
	t := report.NewTable("Table 3: BEOL design rule configurations",
		"Name", "SADP rules", "Blocked via sites")
	for _, r := range tech.StandardRules() {
		sadp := "No SADP"
		if r.SADPMinLayer > 0 {
			sadp = fmt.Sprintf("SADP >= M%d", r.SADPMinLayer)
		}
		t.AddRow(r.Name, sadp, fmt.Sprintf("%d neighbors blocked", r.BlockedVias))
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func printTable2(tb *exp.Testbed) {
	t := report.NewTable(fmt.Sprintf("Table 2: benchmark designs (%s)", tb.Tech.Name),
		"Design", "Period(ns)", "TargetUtil", "#inst", "#nets", "AchUtil", "RouteWL", "Vias", "Clips")
	for _, r := range tb.Records {
		t.AddRow(r.Design, fmt.Sprintf("%.2f", r.PeriodNS), fmt.Sprintf("%.0f%%", r.Util*100),
			r.Insts, r.Nets, fmt.Sprintf("%.1f%%", r.AchUtil*100), r.RouteWL, r.RouteVias, r.Clips)
	}
	t.Write(os.Stdout)
	fmt.Println()
}

func printFig8(tb *exp.Testbed, csvDir string) {
	t := report.NewTable(fmt.Sprintf("Fig. 8: top pin-cost ranges (%s)", tb.Tech.Name),
		"Design", "#clips", "Top1", "Top10", "Top50", "Min(top100)")
	var series []report.Series
	for key, costs := range tb.PinCosts {
		pick := func(i int) string {
			if i < len(costs) {
				return fmt.Sprintf("%.1f", costs[i])
			}
			return "-"
		}
		last := len(costs) - 1
		if last > 99 {
			last = 99
		}
		lastS := "-"
		if last >= 0 {
			lastS = fmt.Sprintf("%.1f", costs[last])
		}
		t.AddRow(key, len(costs), pick(0), pick(9), pick(49), lastS)
		top := costs
		if len(top) > 100 {
			top = top[:100]
		}
		series = append(series, report.Series{Name: key, Values: top})
	}
	t.Write(os.Stdout)
	fmt.Println()
	writeCSVSeries(csvDir, fmt.Sprintf("fig8-%s.csv", tb.Tech.Name), series)
}

func printFig10(ctx context.Context, tb *exp.Testbed, solve exp.SolveOptions, csvDir string) error {
	curves, _, err := exp.DeltaCostStudyCtx(ctx, tb.Tech, tb.Top, solve)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Fig. 10: sorted delta-cost over %d clips (%s); infeasible plotted at %.0f",
			len(tb.Top), tb.Tech.Name, exp.InfeasibleDelta),
		"Rule", "Median", "P90", "Max", "Infeasible", "Unproven")
	var series []report.Series
	for _, cu := range curves {
		n := len(cu.Deltas)
		stat := func(q float64) string {
			if n == 0 {
				return "-"
			}
			i := int(q * float64(n-1))
			return fmt.Sprintf("%.0f", cu.Deltas[i])
		}
		t.AddRow(cu.Rule, stat(0.5), stat(0.9), stat(1.0), cu.Infeasible, cu.Unproven)
		series = append(series, report.Series{Name: cu.Rule, Values: cu.Deltas})
	}
	t.Write(os.Stdout)
	fmt.Println()
	writeCSVSeries(csvDir, fmt.Sprintf("fig10-%s.csv", tb.Tech.Name), series)
	return nil
}

func printValidation(tb *exp.Testbed, solve exp.SolveOptions) error {
	vals, err := exp.ValidationStudy(tb.Top, solve)
	if err != nil {
		return err
	}
	t := report.NewTable(
		fmt.Sprintf("Sec 4.2 validation: OptRouter vs heuristic router (%s)", tb.Tech.Name),
		"Clip", "Heuristic", "Optimal", "Delta")
	sum, worst := 0, 0
	for _, v := range vals {
		t.AddRow(v.Clip, v.HeuristicCost, v.OptimalCost, v.Delta)
		sum += v.Delta
		if v.Delta > worst {
			worst = v.Delta
		}
	}
	t.Write(os.Stdout)
	if len(vals) > 0 {
		fmt.Printf("avg delta = %.1f over %d clips (paper: -10..-15; must never be > 0; worst = %d)\n\n",
			float64(sum)/float64(len(vals)), len(vals), worst)
	}
	return nil
}

func writeCSVSeries(dir, name string, series []report.Series) {
	if dir == "" || len(series) == 0 {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "beoleval: csv: %v\n", err)
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fmt.Fprintf(os.Stderr, "beoleval: csv: %v\n", err)
		return
	}
	defer f.Close()
	if err := report.WriteSeriesCSV(f, series); err != nil {
		fmt.Fprintf(os.Stderr, "beoleval: csv: %v\n", err)
	}
}
