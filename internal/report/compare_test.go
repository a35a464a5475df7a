package report

import (
	"math"
	"reflect"
	"testing"
)

func TestCompareBench(t *testing.T) {
	ok := func(name, solver string, cost int, wall float64) BenchCase {
		return BenchCase{Name: name, Solver: solver, Feasible: true, Proven: true,
			Cost: cost, WallMS: wall}
	}
	base := &BenchDoc{Cases: []BenchCase{
		ok("a", "bnb", 10, 100),
		ok("b", "bnb", 5, 400),
		ok("c", "ilp", 7, 10),
		{Name: "e", Solver: "bnb", Err: "boom", WallMS: 1},
	}}
	cur := &BenchDoc{Cases: []BenchCase{
		ok("a", "bnb", 10, 50), // 2x faster
		ok("b", "bnb", 6, 100), // answer mismatch: excluded from the ratio
		ok("d", "ilp", 1, 5),   // only in current
		ok("e", "bnb", 3, 1),   // errored in base: excluded
	}}
	cmp := CompareBench(base, cur)
	if cmp.Matched != 1 {
		t.Fatalf("Matched = %d, want 1", cmp.Matched)
	}
	if math.Abs(cmp.WallRatio-0.5) > 1e-9 {
		t.Fatalf("WallRatio = %g, want 0.5", cmp.WallRatio)
	}
	if len(cmp.Mismatches) != 1 {
		t.Fatalf("Mismatches = %v, want exactly the b/bnb cost change", cmp.Mismatches)
	}
	if want := []string{"c/ilp"}; !reflect.DeepEqual(cmp.OnlyBase, want) {
		t.Fatalf("OnlyBase = %v, want %v", cmp.OnlyBase, want)
	}
	if want := []string{"d/ilp"}; !reflect.DeepEqual(cmp.OnlyCur, want) {
		t.Fatalf("OnlyCur = %v, want %v", cmp.OnlyCur, want)
	}
}

// TestCompareBenchWallFloor: sub-millisecond walls are clamped to 1ms so
// jitter on trivial cases cannot swing the geomean.
func TestCompareBenchWallFloor(t *testing.T) {
	base := &BenchDoc{Cases: []BenchCase{
		{Name: "tiny", Solver: "bnb", Feasible: true, Proven: true, Cost: 1, WallMS: 0.01},
	}}
	cur := &BenchDoc{Cases: []BenchCase{
		{Name: "tiny", Solver: "bnb", Feasible: true, Proven: true, Cost: 1, WallMS: 0.99},
	}}
	cmp := CompareBench(base, cur)
	if cmp.Matched != 1 || cmp.WallRatio != 1 {
		t.Fatalf("Matched=%d WallRatio=%g, want 1 and 1 (both walls clamp to the 1ms floor)",
			cmp.Matched, cmp.WallRatio)
	}
}

func TestCompareBenchEmpty(t *testing.T) {
	cmp := CompareBench(&BenchDoc{}, &BenchDoc{})
	if cmp.Matched != 0 || cmp.WallRatio != 1 || len(cmp.Mismatches) != 0 {
		t.Fatalf("empty comparison: %+v", cmp)
	}
	if len(cmp.PhaseDeltas) != 0 || cmp.PhaseSummary(3) != "" {
		t.Fatalf("empty comparison has phase deltas: %+v", cmp.PhaseDeltas)
	}
}

// TestCompareBenchPhaseDeltas: the per-phase attribution sums matched cases
// only, prefixes simplex-internal phases with "lp.", floors ratios at 1ms,
// and ranks by absolute millisecond movement.
func TestCompareBenchPhaseDeltas(t *testing.T) {
	mk := func(name string, phases, lpPhases map[string]float64) BenchCase {
		return BenchCase{Name: name, Solver: "ilp", Feasible: true, Proven: true,
			Cost: 3, WallMS: 100, PhasesMS: phases, LPPhasesMS: lpPhases}
	}
	base := &BenchDoc{Cases: []BenchCase{
		mk("a", map[string]float64{"node_lp": 100, "search": 20}, map[string]float64{"pricing": 60}),
		mk("b", map[string]float64{"node_lp": 100}, nil),
		// Mismatched case: its phases must not contribute.
		{Name: "m", Solver: "ilp", Feasible: true, Proven: true, Cost: 1, WallMS: 10,
			PhasesMS: map[string]float64{"node_lp": 1e6}},
	}}
	cur := &BenchDoc{Cases: []BenchCase{
		mk("a", map[string]float64{"node_lp": 150, "search": 19}, map[string]float64{"pricing": 90}),
		mk("b", map[string]float64{"node_lp": 132, "heuristic": 4}, nil),
		{Name: "m", Solver: "ilp", Feasible: true, Proven: true, Cost: 2, WallMS: 10,
			PhasesMS: map[string]float64{"node_lp": 1}},
	}}
	cmp := CompareBench(base, cur)
	if cmp.Matched != 2 {
		t.Fatalf("Matched = %d, want 2", cmp.Matched)
	}
	byPhase := map[string]PhaseDelta{}
	for _, d := range cmp.PhaseDeltas {
		byPhase[d.Phase] = d
	}
	nl := byPhase["node_lp"]
	if nl.BaseMS != 200 || nl.CurMS != 282 || math.Abs(nl.Ratio-1.41) > 1e-9 {
		t.Errorf("node_lp delta = %+v, want 200 -> 282 (ratio 1.41)", nl)
	}
	if lp := byPhase["lp.pricing"]; lp.BaseMS != 60 || lp.CurMS != 90 {
		t.Errorf("lp.pricing delta = %+v, want 60 -> 90", lp)
	}
	// heuristic exists only in cur: base side must be zero with the 1ms floor
	// keeping the ratio sane.
	if h := byPhase["heuristic"]; h.BaseMS != 0 || h.CurMS != 4 || h.Ratio != 4 {
		t.Errorf("heuristic delta = %+v, want 0 -> 4 (ratio 4 via 1ms floor)", h)
	}
	// Largest absolute movement first: node_lp moved 82ms, lp.pricing 30ms.
	if cmp.PhaseDeltas[0].Phase != "node_lp" || cmp.PhaseDeltas[1].Phase != "lp.pricing" {
		t.Errorf("rank order = %v", cmp.PhaseDeltas)
	}
	if s := cmp.PhaseSummary(2); s != "node_lp +41%, lp.pricing +50%" {
		t.Errorf("PhaseSummary(2) = %q", s)
	}
}

// TestCompareBenchWorkRatios: explicit v5 vectors compare over the key
// union, legacy baselines over the shared derived keys, portfolio cases are
// excluded, and WorkMax names the worst case.
func TestCompareBenchWorkRatios(t *testing.T) {
	mk := func(name, solver string, work map[string]int64) BenchCase {
		return BenchCase{Name: name, Solver: solver, Feasible: true, Proven: true,
			Cost: 9, WallMS: 50, Work: work}
	}
	base := &BenchDoc{Cases: []BenchCase{
		mk("flat", "bnb", map[string]int64{"nodes": 100, "drc_checks": 1000}),
		mk("worse", "bnb", map[string]int64{"nodes": 100, "drc_checks": 1000}),
		mk("race", "portfolio", nil),
	}}
	cur := &BenchDoc{Cases: []BenchCase{
		mk("flat", "bnb", map[string]int64{"nodes": 100, "drc_checks": 1000}),
		mk("worse", "bnb", map[string]int64{"nodes": 200, "drc_checks": 2000}),
		mk("race", "portfolio", nil),
	}}
	cmp := CompareBench(base, cur)
	if cmp.Matched != 3 {
		t.Fatalf("Matched = %d, want 3 (portfolio matches on answers)", cmp.Matched)
	}
	if cmp.WorkCases != 2 {
		t.Fatalf("WorkCases = %d, want 2 (portfolio excluded)", cmp.WorkCases)
	}
	if math.Abs(cmp.WorkMax-2) > 1e-9 || cmp.WorkMaxCase != "worse/bnb" {
		t.Fatalf("WorkMax = %g at %q, want 2 at worse/bnb", cmp.WorkMax, cmp.WorkMaxCase)
	}
	// Geomean over the two work cases: sqrt(1 * 2).
	if math.Abs(cmp.WorkRatio-math.Sqrt2) > 1e-9 {
		t.Fatalf("WorkRatio = %g, want sqrt(2)", cmp.WorkRatio)
	}
	byCounter := map[string]WorkDelta{}
	for _, d := range cmp.WorkDeltas {
		byCounter[d.Counter] = d
	}
	if d := byCounter["nodes"]; d.Base != 200 || d.Cur != 300 {
		t.Errorf("nodes delta = %+v, want 200 -> 300", d)
	}
	if d := byCounter["drc_checks"]; d.Base != 2000 || d.Cur != 3000 {
		t.Errorf("drc_checks delta = %+v, want 2000 -> 3000", d)
	}

	// A legacy baseline (BENCH_3–BENCH_9) still carries portfolio cases that
	// no current run produces: they land in OnlyBase and the gate passes.
	legacy := mk("race", "portfolio", nil)
	legacy.Winner = "bnb"
	base = &BenchDoc{Cases: []BenchCase{base.Cases[0], legacy}}
	cur = &BenchDoc{Cases: []BenchCase{cur.Cases[0]}}
	cmp = CompareBench(base, cur)
	if want := []string{"race/portfolio"}; !reflect.DeepEqual(cmp.OnlyBase, want) {
		t.Fatalf("OnlyBase = %v, want %v", cmp.OnlyBase, want)
	}
	if cmp.Matched != 1 || cmp.WorkCases != 1 {
		t.Fatalf("Matched = %d, WorkCases = %d, want 1 and 1", cmp.Matched, cmp.WorkCases)
	}
	if outcome, verdict := cmp.Gate(1.02, 1.2); outcome != GateOK {
		t.Fatalf("gate = %s (%s), want ok", outcome, verdict)
	}
}

// TestCaseWorkRatioKeyLogic: the union applies when both vectors are
// explicit (a vanished counter is signal, floored at 1), the intersection
// when either side is legacy-derived.
func TestCaseWorkRatioKeyLogic(t *testing.T) {
	ok := BenchCase{Name: "a", Solver: "bnb", Feasible: true, Proven: true, Cost: 1}

	// Explicit both sides, counter only in cur: union includes it; the base
	// side floors to 1.
	b, c := ok, ok
	b.Work = map[string]int64{"nodes": 8}
	c.Work = map[string]int64{"nodes": 8, "dives": 2}
	r, keys, okr := caseWorkRatio(b, c)
	if !okr || len(keys) != 2 {
		t.Fatalf("explicit union: ratio=%g keys=%v ok=%v", r, keys, okr)
	}
	if want := math.Sqrt(2); math.Abs(r-want) > 1e-9 {
		t.Fatalf("explicit union ratio = %g, want sqrt(2) (nodes 1.0, dives 2/1)", r)
	}

	// Legacy base (no Work map): only the derived keys shared with cur count.
	b2, c2 := ok, ok
	b2.Nodes, b2.LPSolves, b2.SimplexIters = 10, 20, 400
	c2.Work = map[string]int64{"nodes": 10, "lp_solves": 20, "simplex_iters": 400,
		"ftran_nnz": 1 << 30} // new counter invisible to a legacy baseline
	r2, keys2, okr2 := caseWorkRatio(b2, c2)
	if !okr2 || len(keys2) != 3 || math.Abs(r2-1) > 1e-9 {
		t.Fatalf("legacy intersection: ratio=%g keys=%v ok=%v, want 1.0 over 3 keys",
			r2, keys2, okr2)
	}

	// Portfolio on either side: not comparable.
	p := ok
	p.Solver = "portfolio"
	if _, _, okp := caseWorkRatio(p, c); okp {
		t.Fatal("portfolio base must not produce a work ratio")
	}
	if _, _, okp := caseWorkRatio(b, p); okp {
		t.Fatal("portfolio cur must not produce a work ratio")
	}
}

// TestCompareBenchCalibration: the machine ratio is the geomean over shared
// machine probes, the solver probe is excluded, and the calibrated wall is
// the raw wall with the machine movement divided out.
func TestCompareBenchCalibration(t *testing.T) {
	mk := func(wall float64) BenchCase {
		return BenchCase{Name: "a", Solver: "bnb", Feasible: true, Proven: true,
			Cost: 4, WallMS: wall}
	}
	base := &BenchDoc{
		Cases: []BenchCase{mk(100)},
		Calibration: &BenchCalibration{ScoreNs: 1, ProbesNs: map[string]float64{
			"int_spin": 1.0, "ptr_chase": 10.0, "solver": 1e6}},
	}
	cur := &BenchDoc{
		Cases: []BenchCase{mk(150)},
		Calibration: &BenchCalibration{ScoreNs: 1.5, ProbesNs: map[string]float64{
			"int_spin": 1.5, "ptr_chase": 15.0, "solver": 5e6}}, // solver 5x: ignored
	}
	cmp := CompareBench(base, cur)
	if !cmp.HasCalib {
		t.Fatal("HasCalib = false with calibration on both sides")
	}
	if math.Abs(cmp.CalibRatio-1.5) > 1e-9 {
		t.Fatalf("CalibRatio = %g, want 1.5 (solver probe excluded)", cmp.CalibRatio)
	}
	if math.Abs(cmp.WallRatio-1.5) > 1e-9 {
		t.Fatalf("WallRatio = %g, want 1.5", cmp.WallRatio)
	}
	if math.Abs(cmp.CalibratedWallRatio-1.0) > 1e-9 {
		t.Fatalf("CalibratedWallRatio = %g, want 1.0 (machine fully explains it)",
			cmp.CalibratedWallRatio)
	}

	// One side missing a calibration block: no machine correction.
	cmp2 := CompareBench(&BenchDoc{Cases: base.Cases}, cur)
	if cmp2.HasCalib || cmp2.CalibRatio != 1 || cmp2.CalibratedWallRatio != cmp2.WallRatio {
		t.Fatalf("missing baseline calib: HasCalib=%v CalibRatio=%g", cmp2.HasCalib, cmp2.CalibRatio)
	}

	// No shared machine probes (solver only): no machine correction.
	solverOnly := &BenchCalibration{ScoreNs: 1, ProbesNs: map[string]float64{"solver": 1e6}}
	if r, ok := calibRatio(solverOnly, solverOnly); ok || r != 1 {
		t.Fatalf("solver-only blocks: ratio=%g ok=%v, want 1,false", r, ok)
	}
}

// TestCompareBenchProfileDeltas: per-function self-sample shares diff over
// matched cases, ranked by absolute share movement; one side unprofiled
// yields no deltas.
func TestCompareBenchProfileDeltas(t *testing.T) {
	mk := func(funcs []BenchFuncSample) BenchCase {
		return BenchCase{Name: "a", Solver: "bnb", Feasible: true, Proven: true,
			Cost: 2, WallMS: 10,
			Profile: &BenchProfile{Hz: 100, Samples: 100, Funcs: funcs}}
	}
	base := &BenchDoc{Cases: []BenchCase{mk([]BenchFuncSample{
		{Fn: "lp.ftran", Self: 80, Cum: 80},
		{Fn: "core.steiner", Self: 20, Cum: 20},
	})}}
	cur := &BenchDoc{Cases: []BenchCase{mk([]BenchFuncSample{
		{Fn: "lp.ftran", Self: 30, Cum: 30},
		{Fn: "core.steiner", Self: 20, Cum: 20},
		{Fn: "core.drc", Self: 50, Cum: 50},
	})}}
	cmp := CompareBench(base, cur)
	if len(cmp.ProfileDeltas) != 3 {
		t.Fatalf("ProfileDeltas = %+v, want 3 functions", cmp.ProfileDeltas)
	}
	// lp.ftran moved 0.80 -> 0.30 (|Δ| 0.50), core.drc 0 -> 0.50, steiner 0.20 -> 0.20.
	if cmp.ProfileDeltas[2].Fn != "core.steiner" {
		t.Fatalf("flattest function should rank last: %+v", cmp.ProfileDeltas)
	}
	for _, d := range cmp.ProfileDeltas {
		if d.Fn == "lp.ftran" && (math.Abs(d.BaseFrac-0.8) > 1e-9 || math.Abs(d.CurFrac-0.3) > 1e-9) {
			t.Errorf("lp.ftran shares = %+v, want 0.8 -> 0.3", d)
		}
	}

	// Baseline without profiles: no deltas.
	noProf := &BenchDoc{Cases: []BenchCase{{Name: "a", Solver: "bnb",
		Feasible: true, Proven: true, Cost: 2, WallMS: 10}}}
	if cmp2 := CompareBench(noProf, cur); len(cmp2.ProfileDeltas) != 0 {
		t.Fatalf("unprofiled baseline produced deltas: %+v", cmp2.ProfileDeltas)
	}
}

// TestGateOutcomes walks the two-tier policy through all five outcomes.
func TestGateOutcomes(t *testing.T) {
	check := func(t *testing.T, c BenchComparison, maxWork, maxWall float64, want GateOutcome) {
		t.Helper()
		got, verdict := c.Gate(maxWork, maxWall)
		if got != want {
			t.Fatalf("Gate = %v (%s), want %v", got, verdict, want)
		}
		if verdict == "" {
			t.Fatal("empty verdict")
		}
	}
	t.Run("ok", func(t *testing.T) {
		check(t, BenchComparison{Matched: 5, WorkCases: 5, WorkMax: 1.01,
			WallRatio: 1.1, CalibRatio: 1, CalibratedWallRatio: 1.1}, 1.02, 1.2, GateOK)
	})
	t.Run("answer mismatch wins over everything", func(t *testing.T) {
		check(t, BenchComparison{Mismatches: []string{"a/bnb: cost 3->4"},
			WorkMax: 99, WallRatio: 99}, 1.02, 1.2, GateAnswerMismatch)
	})
	t.Run("work regression", func(t *testing.T) {
		check(t, BenchComparison{Matched: 5, WorkCases: 5, WorkMax: 1.05,
			WallRatio: 1.0, CalibRatio: 1, CalibratedWallRatio: 1.0}, 1.02, 1.2, GateWorkRegression)
	})
	t.Run("wall regression survives calibration", func(t *testing.T) {
		check(t, BenchComparison{Matched: 5, WorkCases: 5, WorkMax: 1.0, HasCalib: true,
			WallRatio: 1.5, CalibRatio: 1.05, CalibratedWallRatio: 1.5 / 1.05},
			1.02, 1.2, GateWallRegression)
	})
	t.Run("calibration explains the wall movement", func(t *testing.T) {
		check(t, BenchComparison{Matched: 5, WorkCases: 5, WorkMax: 1.0, HasCalib: true,
			WallRatio: 1.4, CalibRatio: 1.38, CalibratedWallRatio: 1.4 / 1.38},
			1.02, 1.2, GateWallDrift)
	})
	t.Run("no calibration, flat work, wall moved", func(t *testing.T) {
		check(t, BenchComparison{Matched: 5, WorkCases: 5, WorkMax: 1.0,
			WallRatio: 1.4, CalibRatio: 1, CalibratedWallRatio: 1.4},
			1.02, 1.2, GateWallDrift)
	})
	t.Run("outcome names", func(t *testing.T) {
		for g, want := range map[GateOutcome]string{
			GateOK:             "ok",
			GateAnswerMismatch: "answer-mismatch",
			GateWorkRegression: "work-regression",
			GateWallRegression: "wall-regression",
			GateWallDrift:      "wall-drift-suspected",
		} {
			if g.String() != want {
				t.Errorf("%d.String() = %q, want %q", int(g), g.String(), want)
			}
		}
	})
}

// TestCompareBenchZeroWall: a zero wall_ms (legal for sub-ms solves on a
// coarse clock) clamps to the 1ms floor instead of producing Inf/NaN ratios.
func TestCompareBenchZeroWall(t *testing.T) {
	base := &BenchDoc{Cases: []BenchCase{{Name: "z", Solver: "bnb",
		Feasible: true, Proven: true, Cost: 1, WallMS: 0}}}
	cur := &BenchDoc{Cases: []BenchCase{{Name: "z", Solver: "bnb",
		Feasible: true, Proven: true, Cost: 1, WallMS: 40}}}
	cmp := CompareBench(base, cur)
	if cmp.Matched != 1 || math.IsInf(cmp.WallRatio, 0) || math.IsNaN(cmp.WallRatio) {
		t.Fatalf("zero-wall baseline: Matched=%d WallRatio=%g", cmp.Matched, cmp.WallRatio)
	}
	if math.Abs(cmp.WallRatio-40) > 1e-9 {
		t.Fatalf("WallRatio = %g, want 40 (floor the zero base at 1ms)", cmp.WallRatio)
	}
}
