package exp

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"optrouter/internal/report"
	"optrouter/internal/tech"
)

// TestDeltaCostStudyDeterministic is the determinism golden test: the study
// must produce byte-identical curves and CSV output for any worker count.
// Budgets are generous relative to the tiny seed-pinned clips so every solve
// terminates by optimality proof — time-truncated solves are load-dependent
// and outside the determinism contract (see README "Parallel evaluation").
func TestDeltaCostStudyDeterministic(t *testing.T) {
	tb := quickTB(t, tech.N28T12())
	clips := tb.Top
	if len(clips) > 3 {
		clips = clips[:3]
	}
	opt := SolveOptions{PerClipTimeout: 60 * time.Second}

	opt.Workers = 1
	curves1, res1, err := DeltaCostStudy(tb.Tech, clips, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 8
	curves8, res8, err := DeltaCostStudy(tb.Tech, clips, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, cu := range curves1 {
		if cu.Unproven > 0 {
			t.Fatalf("%s: %d unproven solves — budget too small for the determinism check", cu.Rule, cu.Unproven)
		}
	}
	if !reflect.DeepEqual(curves1, curves8) {
		t.Fatalf("curves differ between -j 1 and -j 8:\n%+v\nvs\n%+v", curves1, curves8)
	}

	// The per-cell results must also agree in study order, modulo wall-time.
	if len(res1) != len(res8) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res8))
	}
	for i := range res1 {
		a, b := res1[i], res8[i]
		a.Runtime, b.Runtime = 0, 0
		// Only the wall-clock telemetry may differ; search counters must not.
		a.Stats.Elapsed, b.Stats.Elapsed = 0, 0
		a.Stats.LPTime, b.Stats.LPTime = 0, 0
		a.Stats.DRCTime, b.Stats.DRCTime = 0, 0
		a.Stats.Phases, b.Stats.Phases = nil, nil
		a.Stats.LPPhases, b.Stats.LPPhases = nil, nil
		a.Stats.BoundTrace, b.Stats.BoundTrace = nil, nil
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("result[%d] differs:\n%+v\nvs\n%+v", i, res1[i], res8[i])
		}
	}

	// Byte-identical Fig. 10 CSV, exactly as cmd/beoleval writes it.
	csv := func(curves []RuleCurve) []byte {
		var series []report.Series
		for _, cu := range curves {
			series = append(series, report.Series{Name: cu.Rule, Values: cu.Deltas})
		}
		var buf bytes.Buffer
		if err := report.WriteSeriesCSV(&buf, series); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if b1, b8 := csv(curves1), csv(curves8); !bytes.Equal(b1, b8) {
		t.Fatalf("CSV output differs between -j 1 and -j 8:\n%s\nvs\n%s", b1, b8)
	}
}

// TestDeltaCostStudyParDeterministic is the in-solve counterpart of the
// worker-count golden above: the CDC-BnB's round loop must leave the
// study output byte-identical between -par 1 and -par 8, per the engine's
// determinism guarantee (fixed round width, total node order; see
// core.SolveBnB). Scheduling-dependent telemetry (cache hits,
// per-worker splits, steal counts, wall times) is excluded; everything the
// study publishes — curves, CSV, answers, search counters — must match.
func TestDeltaCostStudyParDeterministic(t *testing.T) {
	tb := quickTB(t, tech.N28T12())
	clips := tb.Top
	if len(clips) > 2 {
		clips = clips[:2]
	}
	opt := SolveOptions{PerClipTimeout: 60 * time.Second, Workers: 1}

	opt.Par = 1
	curves1, res1, err := DeltaCostStudy(tb.Tech, clips, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Par = 8
	curves8, res8, err := DeltaCostStudy(tb.Tech, clips, opt)
	if err != nil {
		t.Fatal(err)
	}

	for _, cu := range curves1 {
		if cu.Unproven > 0 {
			t.Fatalf("%s: %d unproven solves — budget too small for the determinism check", cu.Rule, cu.Unproven)
		}
	}
	if !reflect.DeepEqual(curves1, curves8) {
		t.Fatalf("curves differ between -par 1 and -par 8:\n%+v\nvs\n%+v", curves1, curves8)
	}
	if len(res1) != len(res8) {
		t.Fatalf("result counts differ: %d vs %d", len(res1), len(res8))
	}
	for i := range res1 {
		a, b := res1[i], res8[i]
		if a.Feasible != b.Feasible || a.Proven != b.Proven || a.Cost != b.Cost ||
			a.WL != b.WL || a.Vias != b.Vias || a.Nodes != b.Nodes {
			t.Fatalf("result[%d] answers differ between -par 1 and -par 8:\n%+v\nvs\n%+v", i, a, b)
		}
		// Deterministic search counters (see core's determinism guarantee).
		sa, sb := a.Stats, b.Stats
		if sa.MaxDepth != sb.MaxDepth || sa.Incumbents != sb.Incumbents ||
			sa.BansGenerated != sb.BansGenerated || sa.DRCChecks != sb.DRCChecks ||
			sa.Dives != sb.Dives {
			t.Fatalf("result[%d] search counters differ between -par 1 and -par 8", i)
		}
		if sa.Par != 1 || sb.Par != 8 {
			t.Fatalf("result[%d] Stats.Par = %d/%d, want 1/8", i, sa.Par, sb.Par)
		}
	}

	csv := func(curves []RuleCurve) []byte {
		var series []report.Series
		for _, cu := range curves {
			series = append(series, report.Series{Name: cu.Rule, Values: cu.Deltas})
		}
		var buf bytes.Buffer
		if err := report.WriteSeriesCSV(&buf, series); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if b1, b8 := csv(curves1), csv(curves8); !bytes.Equal(b1, b8) {
		t.Fatalf("CSV output differs between -par 1 and -par 8:\n%s\nvs\n%s", b1, b8)
	}
}

// TestProgressAccounting pins the progress contract of the parallel study:
// the callback is never invoked concurrently with itself, Index/Total are
// the solve's fixed study-order position (rule-major over clips) rather
// than dispatch order, and Done/InFlight are consistent aggregates with
// InFlight bounded by the worker count.
func TestProgressAccounting(t *testing.T) {
	tb := quickTB(t, tech.N28T12())
	clips := tb.Top
	if len(clips) > 2 {
		clips = clips[:2]
	}
	const workers = 4

	var mu sync.Mutex
	inCallback := false
	var events []ClipProgress
	opt := SolveOptions{
		PerClipTimeout: 30 * time.Second,
		Workers:        workers,
		Progress: func(p ClipProgress) {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("Progress invoked concurrently")
				return
			}
			inCallback = true
			mu.Unlock()
			events = append(events, p)
			mu.Lock()
			inCallback = false
			mu.Unlock()
		},
	}
	curves, results, err := DeltaCostStudy(tb.Tech, clips, opt)
	if err != nil {
		t.Fatal(err)
	}
	total := len(curves) * len(clips)
	if len(results) != total {
		t.Fatalf("results = %d, want %d", len(results), total)
	}

	starts, dones := 0, 0
	lastDone := 0
	for _, p := range events {
		if p.Total != total {
			t.Fatalf("Total = %d, want %d", p.Total, total)
		}
		if p.Index < 1 || p.Index > total {
			t.Fatalf("Index = %d out of range [1,%d]", p.Index, total)
		}
		// Index is the study-order position: cells are rule-major over the
		// clip list, so the clip at Index i is clips[(i-1) % len(clips)] and
		// the rule is curves[(i-1) / len(clips)].Rule.
		if want := clips[(p.Index-1)%len(clips)].Name; p.Clip != want {
			t.Fatalf("Index %d carries clip %s, study order says %s", p.Index, p.Clip, want)
		}
		if want := curves[(p.Index-1)/len(clips)].Rule; p.Rule != want {
			t.Fatalf("Index %d carries rule %s, study order says %s", p.Index, p.Rule, want)
		}
		if p.InFlight < 0 || p.InFlight > workers {
			t.Fatalf("InFlight = %d with %d workers", p.InFlight, workers)
		}
		if p.Done < lastDone {
			t.Fatalf("Done regressed: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		switch p.Phase {
		case "start":
			starts++
		case "done":
			dones++
			if p.Result == nil {
				t.Fatal("done event without Result")
			}
			if p.Result.Clip != p.Clip || p.Result.Rule != p.Rule {
				t.Fatalf("done event result (%s,%s) != event (%s,%s)",
					p.Result.Clip, p.Result.Rule, p.Clip, p.Rule)
			}
		}
	}
	if starts != total || dones != total {
		t.Fatalf("starts=%d dones=%d, want %d each", starts, dones, total)
	}
	last := events[len(events)-1]
	if last.Done != total || last.InFlight != 0 {
		t.Fatalf("final event Done=%d InFlight=%d", last.Done, last.InFlight)
	}
}
