// Command traceview analyses the JSONL span traces emitted by the solver
// CLIs (-trace, optionally -flight). It reconstructs the span tree and
// prints, per solve: the solver's own phase attribution (the flame summary),
// search-tree statistics from the flight recorder's node events — depth
// histogram, fathom-reason mix, bound-gap convergence — and the flight
// sampling accounting. A pprof-style top-N table of hot span names (by self
// time) covers everything outside the solvers.
//
// Usage:
//
//	traceview [-top N] [-csv file] trace.jsonl [trace.jsonl.1 ...]
//	traceview -validate trace.jsonl
//	traceview -profile samples.jsonl
//	traceview -bench BENCH_4.json [-baseline BENCH_3.json]
//
// Multiple files concatenate before reconstruction, so a rotated trace
// (trace.jsonl plus its .1/.2 archives) can be analysed whole. With no file
// arguments the trace is read from stdin. -validate only checks
// well-formedness (every parent resolves, spans nest inside their parents,
// a span's phases_ms sums to its duration within 10% + 2ms) and exits
// non-zero on problems — ci.sh pipes smoke traces through it
// (profile JSONL streams are validated too when given via -profile).
// -csv exports one row per recorded node event ("-" = stdout), a feature
// table for offline analysis.
//
// -profile renders the per-case sampling profiles emitted by
// benchrun -sample: one top-function table per case. -bench renders a
// benchmark document's calibration block, per-case work vectors and LP
// telemetry counters (plus their corpus-wide sum); with
// -baseline it additionally prints the full comparison — calibrated wall
// ratios, per-counter work movement, profile share shifts and the drift
// verdict of the two-tier regression gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"optrouter/internal/lp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "traceview: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		validate = flag.Bool("validate", false, "check trace (or -profile stream) well-formedness and exit")
		topN     = flag.Int("top", 10, "hot-span table size (0 = skip, -1 = all)")
		csvOut   = flag.String("csv", "", "write per-node-event CSV to this file (\"-\" = stdout)")
		profile  = flag.String("profile", "", "render a sampling-profile JSONL stream (benchrun -sample) instead of a trace")
		bench    = flag.String("bench", "", "render a benchmark document's calibration and work vectors instead of a trace")
		baseline = flag.String("baseline", "", "with -bench: compare against this baseline document (drift verdict)")
	)
	flag.Parse()

	if *profile != "" {
		return runProfile(*profile, *validate, *topN)
	}
	if *bench != "" {
		return runBench(*bench, *baseline)
	}

	recs, err := readTraces(flag.Args())
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("trace holds no records")
	}

	if *validate {
		if probs := obs.ValidateTrace(recs); len(probs) > 0 {
			for _, p := range probs {
				fmt.Fprintf(os.Stderr, "traceview: %s\n", p)
			}
			return fmt.Errorf("%d well-formedness problems in %d records", len(probs), len(recs))
		}
		fmt.Printf("%d records: well-formed\n", len(recs))
		return nil
	}

	tree, err := obs.BuildTree(recs)
	if err != nil {
		return err
	}
	solves := report.ExtractSolves(tree)

	if *csvOut != "" {
		if err := writeCSV(*csvOut, solves); err != nil {
			return err
		}
		if *csvOut != "-" {
			n := 0
			for i := range solves {
				n += len(solves[i].Events)
			}
			fmt.Fprintf(os.Stderr, "traceview: wrote %d node events to %s\n", n, *csvOut)
		}
		return nil
	}

	fmt.Printf("trace: %d spans, %d events, %d solves\n", tree.Spans, tree.Events, len(solves))
	for i := range solves {
		printSolve(i, &solves[i])
	}
	if *topN != 0 {
		printTopSpans(tree, *topN)
	}
	return nil
}

// readTraces concatenates the records of every named file (stdin when none).
// Rotated archives share one ID space with the live file, so the combined
// record set reconstructs as a single tree.
func readTraces(paths []string) ([]obs.SpanRecord, error) {
	if len(paths) == 0 {
		return obs.ReadTrace(os.Stdin)
	}
	var all []obs.SpanRecord
	for _, path := range paths {
		var r io.ReadCloser
		if path == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			r = f
		}
		recs, err := obs.ReadTrace(r)
		if path != "-" {
			r.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		all = append(all, recs...)
	}
	return all, nil
}

func printSolve(i int, s *report.SolveTrace) {
	name := s.Clip
	if name == "" {
		name = "(unnamed clip)"
	}
	fmt.Printf("\nsolve %d: %s %s, %.1fms wall\n", i, s.Solver, name, s.WallMS())
	if len(s.PhasesMS) > 0 {
		fmt.Printf("  phases: %s (%.1fms attributed)\n", s.PhaseLine(), s.PhaseTotal())
	}
	if s.Par > 0 {
		fmt.Printf("  par:    %d workers, %d steals\n", s.Par, s.Steals)
	}
	if !s.LP.IsZero() {
		fmt.Printf("  lp:     %s (%d iters)\n", s.LP, s.LPIters)
	}
	if s.FlightSeen == 0 {
		fmt.Printf("  flight: off (rerun with -flight for search-tree statistics)\n")
		return
	}
	fmt.Printf("  flight: %d node events seen, %d kept, %d dropped by sampling\n",
		s.FlightSeen, s.FlightKept, s.FlightDropped)
	if len(s.Events) == 0 {
		return
	}
	fmt.Printf("  depth:  %s\n", histLine(s.DepthHistogram()))
	fmt.Printf("  acts:   %s\n", actLine(s.ActCounts()))
	if wc := s.WorkerCounts(); len(wc) > 0 {
		ids := make([]int, 0, len(wc))
		for id := range wc {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		line := ""
		for _, id := range ids {
			if line != "" {
				line += " "
			}
			line += fmt.Sprintf("%d:%d", id, wc[id])
		}
		fmt.Printf("  workers:%s\n", " "+line)
	}
	if gap := s.GapCurve(); len(gap) > 0 {
		first, last := gap[0], gap[len(gap)-1]
		fmt.Printf("  gap:    %d samples; bound %g / inc %g @ node %d -> bound %g / inc %g @ node %d\n",
			len(gap), first.Bound, first.Inc, first.N, last.Bound, last.Inc, last.N)
	}
}

// histLine renders a depth histogram as "0:12 1:40 2:7 ...".
func histLine(h []int) string {
	out := ""
	for d, n := range h {
		if n == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%d:%d", d, n)
	}
	return out
}

// actLine renders action counts sorted by frequency, largest first.
func actLine(m map[string]int) string {
	type kv struct {
		k string
		v int
	}
	pairs := make([]kv, 0, len(m))
	for k, v := range m {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].k < pairs[j].k
	})
	out := ""
	for _, p := range pairs {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", p.k, p.v)
	}
	return out
}

func printTopSpans(tree *obs.TraceTree, n int) {
	tops := report.TopSpans(tree, n)
	if len(tops) == 0 {
		return
	}
	fmt.Printf("\n%-24s %8s %12s %12s\n", "span", "count", "self_ms", "total_ms")
	for _, a := range tops {
		fmt.Printf("%-24s %8d %12.1f %12.1f\n",
			a.Name, a.Count, float64(a.SelfUS)/1000, float64(a.TotalUS)/1000)
	}
}

// runProfile validates and renders a sampling-profile JSONL stream.
func runProfile(path string, validateOnly bool, topN int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recs, err := report.ReadProfiles(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no profile records", path)
	}
	if validateOnly {
		fmt.Printf("%d profile records: well-formed\n", len(recs))
		return nil
	}
	for _, rec := range recs {
		fmt.Printf("\n%s (%s, %s): %d samples at %d Hz, %.1fms wall\n",
			rec.Clip, rec.Solver, rec.Rule, rec.Samples, rec.Hz, rec.WallMS)
		n := len(rec.Funcs)
		if topN > 0 && n > topN {
			n = topN
		}
		if n > 0 {
			fmt.Printf("  %6s %6s  %s\n", "self", "cum", "function")
		}
		for _, f := range rec.Funcs[:n] {
			fmt.Printf("  %6d %6d  %s\n", f.Self, f.Cum, f.Fn)
		}
	}
	return nil
}

// runBench renders a benchmark document's measurement-trust evidence —
// calibration block and per-case work vectors — and, with a baseline, the
// full comparison including the drift verdict.
func runBench(path, basePath string) error {
	doc, err := readBench(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: schema %d, %s corpus, %d cases (%d failed)\n",
		path, doc.SchemaVersion, doc.Corpus, doc.Totals.Cases, doc.Totals.Failed)
	if cal := doc.Calibration; cal != nil {
		fmt.Printf("calibration: score %.3f ns (suite %.0fms)\n", cal.ScoreNs, cal.WallMS)
		names := make([]string, 0, len(cal.ProbesNs))
		for name := range cal.ProbesNs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-10s %12.3f ns/op\n", name, cal.ProbesNs[name])
		}
	} else {
		fmt.Printf("calibration: none (schema v%d document)\n", doc.SchemaVersion)
	}
	var lpSum lp.Counters
	lpCases := 0
	for _, c := range doc.Cases {
		if c.LP != nil {
			lpCases++
			lpSum.Add(*c.LP)
		}
		if len(c.Work) == 0 && c.Profile == nil && c.LP == nil {
			continue
		}
		fmt.Printf("\n%s/%s: %.1fms wall\n", c.Name, c.Solver, c.WallMS)
		if len(c.Work) > 0 {
			keys := make([]string, 0, len(c.Work))
			for k := range c.Work {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			line := ""
			for _, k := range keys {
				if line != "" {
					line += " "
				}
				line += fmt.Sprintf("%s:%d", k, c.Work[k])
			}
			fmt.Printf("  work:    %s\n", line)
		}
		if c.LP != nil {
			fmt.Printf("  lp:      %s\n", c.LP)
		}
		if p := c.Profile; p != nil {
			fmt.Printf("  profile: %d samples at %d Hz", p.Samples, p.Hz)
			if len(p.Funcs) > 0 {
				fmt.Printf("; top %s (self %d)", p.Funcs[0].Fn, p.Funcs[0].Self)
			}
			fmt.Println()
		}
	}
	if lpCases > 0 {
		fmt.Printf("\nlp summary (%d lp cases): %s\n", lpCases, lpSum)
	}
	if basePath == "" {
		return nil
	}
	base, err := readBench(basePath)
	if err != nil {
		return err
	}
	cmp := report.CompareBench(base, doc)
	fmt.Printf("\nvs %s: %d matched, %d mismatched, %d only-base, %d only-cur\n",
		basePath, cmp.Matched, len(cmp.Mismatches), len(cmp.OnlyBase), len(cmp.OnlyCur))
	fmt.Printf("wall ratio %.3f raw, %.3f calibrated (machine ratio %.3f, calib %v)\n",
		cmp.WallRatio, cmp.CalibratedWallRatio, cmp.CalibRatio, cmp.HasCalib)
	fmt.Printf("work ratio %.3f over %d cases (worst %.3f at %s)\n",
		cmp.WorkRatio, cmp.WorkCases, cmp.WorkMax, cmp.WorkMaxCase)
	for _, d := range cmp.WorkDeltas {
		fmt.Printf("  work %-18s %14d -> %14d  (%.3f)\n", d.Counter, d.Base, d.Cur, d.Ratio)
	}
	for i, d := range cmp.ProfileDeltas {
		if i >= 10 {
			break
		}
		fmt.Printf("  profile %-40s self share %5.1f%% -> %5.1f%%\n",
			d.Fn, d.BaseFrac*100, d.CurFrac*100)
	}
	// The standard CI thresholds (ci.sh): work 1.02 primary, wall 1.2
	// secondary — rendering the same verdict the gate would produce.
	outcome, verdict := cmp.Gate(1.02, 1.2)
	fmt.Printf("verdict [%s]: %s\n", outcome, verdict)
	return nil
}

func readBench(path string) (*report.BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := report.ValidateBench(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func writeCSV(path string, solves []report.SolveTrace) error {
	if path == "-" {
		return report.WriteNodeCSV(os.Stdout, solves)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteNodeCSV(f, solves); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
