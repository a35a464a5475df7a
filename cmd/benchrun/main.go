// Command benchrun runs the pinned benchmark corpus — synthesized clips
// crossed with representative rule configurations, solved by both exact
// engines — and emits one schema-versioned benchmark-trajectory document
// (BENCH_<n>.json) recording wall time, branch-and-bound nodes, simplex
// iterations and the per-phase wall-time breakdown of every case. Committing
// one document per repository revision builds the performance trajectory
// that makes solver regressions visible in review.
//
// Usage:
//
//	benchrun [-short] [-timeout 30s] [-j N] [-o file | -dir dir]
//	benchrun [-baseline file [-max-regress R] [-max-work-regress R]]
//	benchrun [-par N] [-sample file]
//	benchrun [-trace file [-flight]] ...
//	benchrun -check file.json
//	benchrun -calib
//
// Every case is solved once untimed and then five times timed, and reports
// the fastest timed solve; only the untimed warm-up is traced,
// flight-recorded and sampled. -short runs the CI corpus (seconds); the
// default full corpus takes tens of seconds. -o writes to the named file
// ("-" = stdout); -dir picks the first free BENCH_<n>.json in the directory
// (default "."). -check only
// validates an existing document against the schema and exits. -calib runs
// the machine-calibration probe suite alone, prints it, and exits — the
// same suite every corpus run stamps into its document's calibration block.
//
// -baseline compares the run against a committed trajectory point under the
// two-tier regression policy: -max-work-regress gates the deterministic
// per-case work ratio (the primary signal — tight, jitter-free), and
// -max-regress gates the geomean wall ratio (secondary — loose, corrected by
// the calibration blocks when both documents carry them). The process exit
// code classifies the outcome for CI:
//
//	0  answers match, work flat, wall within bounds
//	1  operational error (bad flags, I/O, failed cases, no comparable cases)
//	2  answer mismatch — the solvers disagree
//	3  work regression — a deterministic counter regressed; always code
//	4  wall regression — slower even after machine drift is divided out
//	5  wall regression with machine drift suspected — warn, don't fail
//
// -sample profiles every case with the in-process sampling profiler
// (obs.Sampler), attaching per-case top-function summaries to the document
// and streaming one JSONL record per case to the named file ("-" = stderr
// summary only), at 100 Hz.
//
// -par N runs every serial bnb case with N in-solve workers (the parallel
// engine is deterministic, so answers — and hence the -baseline answer gate —
// are unaffected; pinned par twins keep their own worker count). It is a
// scaling experiment knob (the EXPERIMENTS.md 1/2/4/8-worker curve);
// committed trajectory points use the pinned corpus unmodified.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/exp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
)

// CI exit codes of the -baseline gate (see the package comment).
const (
	exitAnswerMismatch = 2
	exitWorkRegression = 3
	exitWallRegression = 4
	exitWallDrift      = 5
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	s := exp.BindFlags(flag.CommandLine, "benchrun", 30*time.Second)
	var (
		short   = flag.Bool("short", false, "run the reduced CI corpus")
		out     = flag.String("o", "", "output file (\"-\" = stdout; default: first free BENCH_<n>.json in -dir)")
		dir     = flag.String("dir", ".", "directory for auto-numbered BENCH_<n>.json output")
		check   = flag.String("check", "", "validate an existing benchmark document and exit")
		calOnly = flag.Bool("calib", false, "run the machine-calibration probe suite, print it, and exit")

		baseline   = flag.String("baseline", "", "baseline benchmark document to compare the run against")
		maxRegress = flag.Float64("max-regress", 0,
			"fail (exit 4/5) when the wall ratio vs -baseline exceeds this, calibrated when possible (0 = report only)")
		maxWorkRegress = flag.Float64("max-work-regress", 0,
			"fail (exit 3) when any case's deterministic work ratio vs -baseline exceeds this (0 = report only)")

		sample = flag.String("sample", "", "profile each case with the sampling profiler (100 Hz), writing JSONL records here (\"-\" = no file, document only)")
	)
	flag.Parse()

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			return 1, err
		}
		doc, err := report.ValidateBench(data)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", *check, err)
		}
		fmt.Printf("%s: valid (schema %d, %s corpus, %d cases, %d failed)\n",
			*check, doc.SchemaVersion, doc.Corpus, doc.Totals.Cases, doc.Totals.Failed)
		return 0, nil
	}

	if *calOnly {
		res := calib.Run(calib.Options{})
		for _, p := range res.Probes {
			fmt.Printf("%-10s %12.3f ns/op  (%d ops)\n", p.Name, p.NsPerOp, p.Ops)
		}
		fmt.Printf("%-10s %12.3f ns     (machine probes geomean; %.0fms suite wall)\n",
			"score", res.ScoreNs, res.WallMS)
		return 0, nil
	}

	defer s.Close()
	if err := s.Open(false); err != nil {
		return 1, err
	}

	corpus := "full"
	if *short {
		corpus = "short"
	}
	specs := exp.BenchCorpus(*short)
	if par := s.Solve.Par; par > 0 {
		for i := range specs {
			if specs[i].Solver != "ilp" && specs[i].Par == 0 {
				specs[i].Par = par
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchrun: %s corpus, %d cases, %d workers\n", corpus, len(specs), s.Solve.Workers)

	// Calibrate before solving anything: the document must say what machine
	// state produced it, and the operator should see the score up front.
	calRes := calib.Run(calib.Options{})
	fmt.Fprintf(os.Stderr, "benchrun: calibration score %.3f ns (suite %.0fms)\n",
		calRes.ScoreNs, calRes.WallMS)

	runOpt := exp.BenchRunOptions{
		Timeout: s.Solve.PerClipTimeout, Workers: s.Solve.Workers, Corpus: corpus,
		Tracer: s.Solve.Tracer, Flight: s.Solve.Flight,
		Calibration: &report.BenchCalibration{
			ProbesNs: calRes.ProbesNs(), ScoreNs: calRes.ScoreNs, WallMS: calRes.WallMS,
		},
	}
	if *sample != "" {
		sampler := obs.StartSampler(obs.SamplerOptions{})
		defer sampler.Stop()
		runOpt.Sampler = sampler
		if *sample != "-" {
			f, err := os.Create(*sample)
			if err != nil {
				return 1, err
			}
			pw := report.NewJSONLWriter[report.ProfileRecord](f)
			defer func() {
				if err := pw.Flush(); err != nil {
					fmt.Fprintf(os.Stderr, "benchrun: sample: %v\n", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "benchrun: sample: %v\n", err)
				}
			}()
			runOpt.ProfileW = pw
		}
		defer func() {
			fmt.Fprintf(os.Stderr, "benchrun: sampler captured %d stacks at %d Hz\n",
				sampler.Samples(), sampler.Hz())
		}()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	doc, err := exp.RunBenchCorpus(ctx, specs, runOpt)
	if err != nil {
		return 1, err
	}

	// Self-validate before writing: an emitted document that fails its own
	// schema is a bug worth failing loudly on, not committing.
	data, err := report.MarshalBench(doc)
	if err != nil {
		return 1, err
	}
	if _, err := report.ValidateBench(data); err != nil {
		return 1, fmt.Errorf("emitted document fails validation: %w", err)
	}

	if *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			return 1, err
		}
	} else {
		path := *out
		if path == "" {
			path, err = nextBenchPath(*dir)
			if err != nil {
				return 1, err
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "benchrun: wrote %s (%d cases, %d failed, %.0fms total solve wall)\n",
			path, doc.Totals.Cases, doc.Totals.Failed, doc.Totals.WallMS)
	}
	if doc.Totals.Failed > 0 {
		return 1, fmt.Errorf("%d of %d cases failed", doc.Totals.Failed, doc.Totals.Cases)
	}
	if *baseline != "" {
		return compareBaseline(doc, *baseline, *maxRegress, *maxWorkRegress)
	}
	return 0, nil
}

// compareBaseline gates the freshly run document against a committed
// trajectory point under the two-tier policy: identical answers on every
// shared case, deterministic work within maxWorkRegress (primary), wall time
// within maxRegress (secondary, machine-corrected when both documents carry
// calibration). The returned code is the process exit code.
func compareBaseline(doc *report.BenchDoc, path string, maxRegress, maxWorkRegress float64) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 1, err
	}
	base, err := report.ValidateBench(data)
	if err != nil {
		return 1, fmt.Errorf("%s: %w", path, err)
	}
	cmp := report.CompareBench(base, doc)
	fmt.Fprintf(os.Stderr, "benchrun: vs %s: %d cases matched, geomean wall ratio %.3f (calibrated %.3f, calib %.3f)\n",
		path, cmp.Matched, cmp.WallRatio, cmp.CalibratedWallRatio, cmp.CalibRatio)
	fmt.Fprintf(os.Stderr, "benchrun: work ratio %.3f over %d cases (worst %.3f at %s)\n",
		cmp.WorkRatio, cmp.WorkCases, cmp.WorkMax, cmp.WorkMaxCase)
	for _, m := range cmp.Mismatches {
		fmt.Fprintf(os.Stderr, "benchrun: answer mismatch: %s\n", m)
	}
	for _, k := range cmp.OnlyCur {
		fmt.Fprintf(os.Stderr, "benchrun: case %s not in baseline\n", k)
	}
	for _, k := range cmp.OnlyBase {
		fmt.Fprintf(os.Stderr, "benchrun: case %s only in baseline (not run)\n", k)
	}
	if len(cmp.WorkDeltas) > 0 {
		fmt.Fprintf(os.Stderr, "benchrun: %-18s %14s %14s %8s\n", "work counter", "base", "cur", "ratio")
		for _, d := range cmp.WorkDeltas {
			fmt.Fprintf(os.Stderr, "benchrun: %-18s %14d %14d %8.3f\n", d.Counter, d.Base, d.Cur, d.Ratio)
		}
	}
	if len(cmp.PhaseDeltas) > 0 {
		fmt.Fprintf(os.Stderr, "benchrun: %-16s %10s %10s %8s\n", "phase", "base_ms", "cur_ms", "delta")
		for _, d := range cmp.PhaseDeltas {
			fmt.Fprintf(os.Stderr, "benchrun: %-16s %10.1f %10.1f %+7.0f%%\n",
				d.Phase, d.BaseMS, d.CurMS, (d.Ratio-1)*100)
		}
	}
	for i, d := range cmp.ProfileDeltas {
		if i >= 5 {
			break
		}
		fmt.Fprintf(os.Stderr, "benchrun: profile %s: self share %.1f%% -> %.1f%%\n",
			d.Fn, d.BaseFrac*100, d.CurFrac*100)
	}
	if cmp.Matched == 0 && len(cmp.Mismatches) == 0 {
		return 1, fmt.Errorf("no comparable cases vs %s", path)
	}
	// 0 means "report only" for each tier; Gate sees an infinite threshold.
	gateWork, gateWall := maxWorkRegress, maxRegress
	if gateWork <= 0 {
		gateWork = math.Inf(1)
	}
	if gateWall <= 0 {
		gateWall = math.Inf(1)
	}
	outcome, verdict := cmp.Gate(gateWork, gateWall)
	fmt.Fprintf(os.Stderr, "benchrun: gate %s: %s\n", outcome, verdict)
	switch outcome {
	case report.GateAnswerMismatch:
		return exitAnswerMismatch, fmt.Errorf("answer mismatch vs %s: %s", path, verdict)
	case report.GateWorkRegression:
		return exitWorkRegression, fmt.Errorf("%s vs %s", verdict, path)
	case report.GateWallRegression:
		msg := verdict
		if s := cmp.PhaseSummary(3); s != "" {
			msg += " (largest phase movements: " + s + ")"
		}
		return exitWallRegression, fmt.Errorf("%s vs %s", msg, path)
	case report.GateWallDrift:
		// Warn-only outcome: distinct exit code, no error (ci.sh decides).
		fmt.Fprintf(os.Stderr, "benchrun: WARNING: %s\n", verdict)
		return exitWallDrift, nil
	}
	return 0, nil
}

// nextBenchPath returns the first BENCH_<n>.json not yet present in dir.
func nextBenchPath(dir string) (string, error) {
	for n := 0; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", n))
		if _, err := os.Stat(path); os.IsNotExist(err) {
			return path, nil
		} else if err != nil {
			return "", err
		}
	}
}
