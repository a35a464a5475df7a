package report

import (
	"fmt"
	"math"
	"sort"
)

// BenchComparison is the result of CompareBench: per-case answer agreement
// and an aggregate wall-time ratio between two benchmark-trajectory
// documents. It is the data behind cmd/benchrun's -baseline/-max-regress
// regression gate.
type BenchComparison struct {
	// Matched counts cases present in both documents (keyed by name+solver)
	// with agreeing answers and no recorded error on either side; only these
	// contribute to WallRatio.
	Matched int
	// WallRatio is the geometric mean over matched cases of the per-case
	// wall-time ratio current/base, with each wall clamped to a 1ms floor so
	// scheduling jitter on trivial cases cannot dominate the mean. A value
	// below 1 means the current document is faster; 1 when nothing matched.
	WallRatio float64
	// Mismatches lists matched cases whose answers disagree (cost, feasible
	// or proven verdict). Any entry means the two documents do not describe
	// the same solver behaviour, and a wall-time comparison of that case
	// would be meaningless — mismatched cases are excluded from WallRatio.
	Mismatches []string
	// OnlyBase and OnlyCur list case keys present in one document only; they
	// are excluded from the ratio. OnlyBase entries are expected when the
	// short CI corpus is compared against a full-corpus trajectory point.
	OnlyBase, OnlyCur []string
	// PhaseDeltas attributes the wall-time movement to solver phases: per
	// phase, the summed milliseconds over matched cases in each document.
	// Simplex-internal phases appear with an "lp." prefix so they do not
	// collide with the MILP engine's phase names. Sorted by the absolute
	// millisecond movement, largest first — the head of the list names the
	// phase a regression lives in.
	PhaseDeltas []PhaseDelta

	// Work-based gating (the primary regression signal from schema v5 on).
	// Work counters are deterministic, so unlike wall time they carry no
	// jitter: the gate compares the WORST single case (WorkMax) against a
	// tight threshold instead of a geomean that would dilute a one-case
	// regression across the corpus. Portfolio cases, read-only history from
	// BENCH_3–BENCH_9, are excluded (the race was scheduling-dependent);
	// pre-v5 baselines contribute a legacy
	// vector derived from the nodes/lp_solves/simplex_iters fields.
	WorkCases   int     // matched cases contributing work ratios
	WorkRatio   float64 // geomean of per-case work ratios (1 when no work cases)
	WorkMax     float64 // worst per-case work ratio — the gate signal
	WorkMaxCase string  // case key attaining WorkMax
	// WorkDeltas aggregates each counter over matched work cases, sorted by
	// ratio distance from 1, largest first.
	WorkDeltas []WorkDelta

	// Machine calibration (schema v5). HasCalib is true when both documents
	// carry calibration blocks with at least one shared machine probe;
	// CalibRatio is then the probe-wise geomean cur/base (the solver probe
	// is excluded — it moves with the code, not the machine) and
	// CalibratedWallRatio is WallRatio with the machine movement divided
	// out. Without calibration on both sides both ratios are 1 and the
	// calibrated wall equals the raw one.
	HasCalib            bool
	CalibRatio          float64
	CalibratedWallRatio float64

	// ProfileDeltas diffs the sampling profiles of the two documents: per
	// function, the share of self samples in each document, sorted by the
	// absolute share movement. Empty unless both documents carry profiles.
	ProfileDeltas []ProfileDelta
}

// WorkDelta is one deterministic counter's movement between two documents,
// summed over matched work cases.
type WorkDelta struct {
	Counter   string
	Base, Cur int64
	// Ratio is Cur/Base with both floored at 1, mirroring the per-case math.
	Ratio float64
}

// ProfileDelta is one function's sampling-profile movement: the share of
// self samples it accounts for in each document.
type ProfileDelta struct {
	Fn                string
	BaseFrac, CurFrac float64 // fraction of self samples, in [0, 1]
	BaseSelf, CurSelf int64   // raw self-sample counts
}

// PhaseDelta is one phase's wall-time movement between two documents.
type PhaseDelta struct {
	Phase  string
	BaseMS float64
	CurMS  float64
	// Ratio is CurMS/BaseMS with both floored at 1ms, mirroring WallRatio's
	// jitter clamp: phases measured in microseconds cannot produce dramatic
	// ratios.
	Ratio float64
}

// PhaseSummary renders the n largest phase movements as a compact
// "node_lp +41%, steiner -3%" string (empty when no phase data matched).
func (c BenchComparison) PhaseSummary(n int) string {
	s := ""
	for i, d := range c.PhaseDeltas {
		if i >= n {
			break
		}
		if s != "" {
			s += ", "
		}
		s += fmt.Sprintf("%s %+.0f%%", d.Phase, (d.Ratio-1)*100)
	}
	return s
}

// CompareBench matches the cases of two benchmark documents by name+solver
// and summarizes their agreement. Neither document is mutated.
func CompareBench(base, cur *BenchDoc) BenchComparison {
	key := func(c BenchCase) string { return c.Name + "/" + c.Solver }
	baseByKey := make(map[string]BenchCase, len(base.Cases))
	for _, c := range base.Cases {
		baseByKey[key(c)] = c
	}
	var cmp BenchComparison
	logSum := 0.0
	workLogSum := 0.0
	baseWorkTot := map[string]int64{}
	curWorkTot := map[string]int64{}
	basePhase := map[string]float64{}
	curPhase := map[string]float64{}
	addPhases := func(into map[string]float64, c BenchCase) {
		for p, ms := range c.PhasesMS {
			into[p] += ms
		}
		for p, ms := range c.LPPhasesMS {
			into["lp."+p] += ms
		}
	}
	baseProf := map[string]int64{}
	curProf := map[string]int64{}
	addProfile := func(into map[string]int64, c BenchCase) {
		if c.Profile == nil {
			return
		}
		for _, f := range c.Profile.Funcs {
			into[f.Fn] += f.Self
		}
	}
	seen := make(map[string]bool, len(cur.Cases))
	for _, c := range cur.Cases {
		k := key(c)
		b, ok := baseByKey[k]
		if !ok {
			cmp.OnlyCur = append(cmp.OnlyCur, k)
			continue
		}
		seen[k] = true
		if c.Err != "" || b.Err != "" {
			continue
		}
		if c.Cost != b.Cost || c.Feasible != b.Feasible || c.Proven != b.Proven {
			cmp.Mismatches = append(cmp.Mismatches, fmt.Sprintf(
				"%s: cost %d->%d, feasible %v->%v, proven %v->%v",
				k, b.Cost, c.Cost, b.Feasible, c.Feasible, b.Proven, c.Proven))
			continue
		}
		cmp.Matched++
		logSum += math.Log(math.Max(c.WallMS, 1) / math.Max(b.WallMS, 1))
		addPhases(basePhase, b)
		addPhases(curPhase, c)
		addProfile(baseProf, b)
		addProfile(curProf, c)
		if r, keys, ok := caseWorkRatio(b, c); ok {
			cmp.WorkCases++
			workLogSum += math.Log(r)
			if r > cmp.WorkMax {
				cmp.WorkMax, cmp.WorkMaxCase = r, k
			}
			bw, _ := workVector(b)
			cw, _ := workVector(c)
			for _, cnt := range keys {
				baseWorkTot[cnt] += bw[cnt]
				curWorkTot[cnt] += cw[cnt]
			}
		}
	}
	for p := range curPhase {
		if _, ok := basePhase[p]; !ok {
			basePhase[p] = 0
		}
	}
	for p, bms := range basePhase {
		cms := curPhase[p]
		cmp.PhaseDeltas = append(cmp.PhaseDeltas, PhaseDelta{
			Phase: p, BaseMS: bms, CurMS: cms,
			Ratio: math.Max(cms, 1) / math.Max(bms, 1),
		})
	}
	sort.Slice(cmp.PhaseDeltas, func(i, j int) bool {
		di := math.Abs(cmp.PhaseDeltas[i].CurMS - cmp.PhaseDeltas[i].BaseMS)
		dj := math.Abs(cmp.PhaseDeltas[j].CurMS - cmp.PhaseDeltas[j].BaseMS)
		if di != dj {
			return di > dj
		}
		return cmp.PhaseDeltas[i].Phase < cmp.PhaseDeltas[j].Phase
	})
	for k := range baseByKey {
		if !seen[k] {
			cmp.OnlyBase = append(cmp.OnlyBase, k)
		}
	}
	sort.Strings(cmp.OnlyBase)
	cmp.WallRatio = 1
	if cmp.Matched > 0 {
		cmp.WallRatio = math.Exp(logSum / float64(cmp.Matched))
	}
	cmp.WorkRatio = 1
	if cmp.WorkCases > 0 {
		cmp.WorkRatio = math.Exp(workLogSum / float64(cmp.WorkCases))
	}
	for cnt, bv := range baseWorkTot {
		cmp.WorkDeltas = append(cmp.WorkDeltas, WorkDelta{
			Counter: cnt, Base: bv, Cur: curWorkTot[cnt],
			Ratio: float64(maxInt64(curWorkTot[cnt], 1)) / float64(maxInt64(bv, 1)),
		})
	}
	sort.Slice(cmp.WorkDeltas, func(i, j int) bool {
		di := math.Abs(math.Log(cmp.WorkDeltas[i].Ratio))
		dj := math.Abs(math.Log(cmp.WorkDeltas[j].Ratio))
		if di != dj {
			return di > dj
		}
		return cmp.WorkDeltas[i].Counter < cmp.WorkDeltas[j].Counter
	})
	cmp.CalibRatio, cmp.HasCalib = calibRatio(base.Calibration, cur.Calibration)
	cmp.CalibratedWallRatio = cmp.WallRatio / cmp.CalibRatio
	cmp.ProfileDeltas = profileDeltas(baseProf, curProf)
	return cmp
}

// workVector returns a case's deterministic work counters and whether they
// were explicit (schema v5 Work map) or legacy-derived from the per-case
// nodes/lp_solves/simplex_iters fields of pre-v5 documents.
func workVector(c BenchCase) (map[string]int64, bool) {
	if len(c.Work) > 0 {
		return c.Work, true
	}
	return map[string]int64{
		"nodes":         int64(c.Nodes),
		"lp_solves":     int64(c.LPSolves),
		"simplex_iters": int64(c.SimplexIters),
	}, false
}

// caseWorkRatio is the per-case work ratio: the geomean over comparable
// counter keys of cur/base, each side floored at 1 so a counter a solver
// legitimately reports as zero cannot blow up the ratio. When both sides
// carry explicit vectors the keys are the union (a counter vanishing or
// appearing is itself signal); when either side is legacy-derived only the
// shared keys are comparable. Portfolio cases, read-only history from
// BENCH_3–BENCH_9, return ok=false — the race outcome was
// scheduling-dependent, so no counter is pinned.
func caseWorkRatio(b, c BenchCase) (ratio float64, keys []string, ok bool) {
	if b.Solver == "portfolio" || c.Solver == "portfolio" {
		return 0, nil, false
	}
	bw, bExplicit := workVector(b)
	cw, cExplicit := workVector(c)
	if bExplicit && cExplicit {
		for k := range bw {
			keys = append(keys, k)
		}
		for k := range cw {
			if _, dup := bw[k]; !dup {
				keys = append(keys, k)
			}
		}
	} else {
		for k := range bw {
			if _, shared := cw[k]; shared {
				keys = append(keys, k)
			}
		}
	}
	if len(keys) == 0 {
		return 0, nil, false
	}
	sort.Strings(keys)
	logSum := 0.0
	for _, k := range keys {
		logSum += math.Log(float64(maxInt64(cw[k], 1)) / float64(maxInt64(bw[k], 1)))
	}
	return math.Exp(logSum / float64(len(keys))), keys, true
}

// calibSolverProbe is the calibration probe excluded from the machine ratio:
// it exercises the solver itself, so code speedups move it.
const calibSolverProbe = "solver"

// calibRatio is the machine ratio between two calibration blocks: the
// geomean over shared machine probes of cur/base ns/op. Returns (1, false)
// unless both blocks exist and share at least one machine probe.
func calibRatio(base, cur *BenchCalibration) (float64, bool) {
	if base == nil || cur == nil {
		return 1, false
	}
	logSum, n := 0.0, 0
	for name, bns := range base.ProbesNs {
		if name == calibSolverProbe || bns <= 0 {
			continue
		}
		cns, ok := cur.ProbesNs[name]
		if !ok || cns <= 0 {
			continue
		}
		logSum += math.Log(cns / bns)
		n++
	}
	if n == 0 {
		return 1, false
	}
	return math.Exp(logSum / float64(n)), true
}

// profileDeltas diffs two aggregated self-sample maps into per-function
// share movements, largest first. Empty unless both sides sampled.
func profileDeltas(base, cur map[string]int64) []ProfileDelta {
	var baseTot, curTot int64
	for _, v := range base {
		baseTot += v
	}
	for _, v := range cur {
		curTot += v
	}
	if baseTot == 0 || curTot == 0 {
		return nil
	}
	fns := map[string]bool{}
	for fn := range base {
		fns[fn] = true
	}
	for fn := range cur {
		fns[fn] = true
	}
	var out []ProfileDelta
	for fn := range fns {
		out = append(out, ProfileDelta{
			Fn:       fn,
			BaseSelf: base[fn], CurSelf: cur[fn],
			BaseFrac: float64(base[fn]) / float64(baseTot),
			CurFrac:  float64(cur[fn]) / float64(curTot),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		di := math.Abs(out[i].CurFrac - out[i].BaseFrac)
		dj := math.Abs(out[j].CurFrac - out[j].BaseFrac)
		if di != dj {
			return di > dj
		}
		return out[i].Fn < out[j].Fn
	})
	return out
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// GateOutcome classifies a baseline comparison for CI: each outcome maps to
// a distinct benchrun exit code so ci.sh can fail answer and work
// regressions while only warning when the evidence points at the machine.
type GateOutcome int

const (
	// GateOK: answers agree, work flat, wall within bounds.
	GateOK GateOutcome = iota
	// GateAnswerMismatch: a matched case changed cost/feasible/proven — the
	// solvers disagree and no performance comparison is meaningful.
	GateAnswerMismatch
	// GateWorkRegression: a deterministic work counter regressed past the
	// tight threshold. Always a code change; always a hard failure.
	GateWorkRegression
	// GateWallRegression: wall time regressed past the loose threshold even
	// after dividing out the measured machine drift — a genuine slowdown
	// that the work counters did not capture (e.g. constant-factor).
	GateWallRegression
	// GateWallDrift: wall time regressed but the evidence points at the
	// machine — either calibration explains the movement, or the baseline
	// has no calibration and every deterministic counter is flat. CI warns
	// instead of failing (the BENCH_2→BENCH_3 false alarm, automated).
	GateWallDrift
)

// String names the outcome for logs and CI output.
func (g GateOutcome) String() string {
	switch g {
	case GateOK:
		return "ok"
	case GateAnswerMismatch:
		return "answer-mismatch"
	case GateWorkRegression:
		return "work-regression"
	case GateWallRegression:
		return "wall-regression"
	case GateWallDrift:
		return "wall-drift-suspected"
	}
	return fmt.Sprintf("GateOutcome(%d)", int(g))
}

// Gate applies the two-tier regression policy: the deterministic work ratio
// is the primary signal (tight maxWork, per-case worst), wall time the
// secondary (loose maxWall, geomean, machine-corrected when calibration is
// available). The returned verdict is one human-readable sentence of
// evidence for the outcome.
func (c BenchComparison) Gate(maxWork, maxWall float64) (GateOutcome, string) {
	if len(c.Mismatches) > 0 {
		return GateAnswerMismatch, fmt.Sprintf("%d answer mismatch(es): %s",
			len(c.Mismatches), c.Mismatches[0])
	}
	if c.WorkCases > 0 && c.WorkMax > maxWork {
		return GateWorkRegression, fmt.Sprintf(
			"work regression: %s work ratio %.3f > %.3f (corpus geomean %.3f)",
			c.WorkMaxCase, c.WorkMax, maxWork, c.WorkRatio)
	}
	if c.HasCalib {
		if c.CalibratedWallRatio > maxWall {
			return GateWallRegression, fmt.Sprintf(
				"wall regression: calibrated wall %.3f > %.3f (raw %.3f, calib %.3f) — machine drift divided out, the code is slower",
				c.CalibratedWallRatio, maxWall, c.WallRatio, c.CalibRatio)
		}
		if c.WallRatio > maxWall {
			return GateWallDrift, fmt.Sprintf(
				"calib %.2f, calibrated wall %.2f → machine drift suspected (raw wall %.2f exceeds %.2f but the machine moved with it)",
				c.CalibRatio, c.CalibratedWallRatio, c.WallRatio, maxWall)
		}
	} else if c.WallRatio > maxWall {
		// No calibration on both sides: the work gate above already proved
		// every deterministic counter flat, so a wall movement alone points
		// at the machine, not the code.
		return GateWallDrift, fmt.Sprintf(
			"wall %.2f > %.2f with work max %.3f (flat) and no baseline calibration → machine drift suspected",
			c.WallRatio, maxWall, c.WorkMax)
	}
	return GateOK, fmt.Sprintf("ok: work max %.3f (%d cases), wall %.3f (calibrated %.3f, calib %.3f)",
		c.WorkMax, c.WorkCases, c.WallRatio, c.CalibratedWallRatio, c.CalibRatio)
}
