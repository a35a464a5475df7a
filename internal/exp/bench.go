package exp

import (
	"context"
	"fmt"
	"maps"
	"runtime"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/ilp"
	"optrouter/internal/lp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
	"optrouter/internal/rgraph"
	"optrouter/internal/sched"
	"optrouter/internal/tech"
)

// BenchSpec is one pinned benchmark case: a synthesized clip (fully
// determined by the seed and dimensions) solved under one rule with one
// solver. The corpus is versioned by construction — identical specs produce
// identical instances on every checkout — so BENCH_<n>.json documents are
// comparable across the repository's history.
type BenchSpec struct {
	Name       string // case name, unique per (spec, solver)
	Seed       int64
	NX, NY, NZ int
	Nets       int
	Sinks      int // MaxSinks
	Rule       string
	Solver     string // "bnb" or "ilp"
	// Par is the in-solve worker count for bnb cases (0 = serial engine).
	// The parallel engine is deterministic, so a par twin of a serial case
	// must report the identical answer — the corpus exploits this as a
	// standing cross-check.
	Par int
}

// BenchCorpus returns the pinned corpus. The short corpus is the CI gate
// (about a second); the full corpus is what cmd/benchrun commits as a
// trajectory point: feasible searches from tens to thousands of BnB nodes,
// proven-infeasible searches (the expensive half of rule-impact evaluation),
// and MILP cases with enough simplex iterations to make the LP-phase
// breakdown meaningful. Instances were picked from a seed×dims×rule
// feasibility scan; dims/seed/rule pin each one exactly.
func BenchCorpus(short bool) []BenchSpec {
	mk := func(nx, ny, nz int, seed int64, rule, solver string) BenchSpec {
		return BenchSpec{
			Name: fmt.Sprintf("%dx%dx%d-s%d-%s-%s", nx, ny, nz, seed, rule, solver),
			Seed: seed, NX: nx, NY: ny, NZ: nz, Nets: 3, Sinks: 2,
			Rule: rule, Solver: solver,
		}
	}
	// mkPar is a par-N twin of a bnb case: same instance, the CDC-BnB's one
	// round loop at its fixed parallel round width on par workers. Its answer
	// must match the width-1 case's exactly (the -baseline gate enforces this across trajectory
	// points, the determinism goldens within one revision).
	mkPar := func(nx, ny, nz int, seed int64, rule string, par int) BenchSpec {
		s := mk(nx, ny, nz, seed, rule, "bnb")
		s.Name = fmt.Sprintf("%s-par%d", s.Name, par)
		s.Par = par
		return s
	}
	if short {
		return []BenchSpec{
			mk(6, 7, 4, 3, "RULE8", "bnb"),  // feasible, ~400-node search
			mk(6, 7, 4, 8, "RULE7", "bnb"),  // feasible, ~100-node search
			mk(5, 6, 3, 4, "RULE7", "bnb"),  // proven infeasible, ~1300 nodes
			mk(4, 5, 3, 10, "RULE1", "ilp"), // feasible, ~13k simplex iters
			mkPar(6, 7, 4, 3, "RULE8", 8),   // par-8 twin of the first case
		}
	}
	return []BenchSpec{
		// Trivial baseline: the relaxed rule routes at the root node.
		mk(6, 7, 4, 3, "RULE1", "bnb"),
		// Feasible searches, ~100 to ~4000 nodes.
		mk(6, 7, 4, 3, "RULE7", "bnb"),
		mk(6, 7, 4, 3, "RULE8", "bnb"),
		mk(6, 7, 4, 6, "RULE7", "bnb"),
		mk(6, 7, 4, 6, "RULE8", "bnb"),
		mk(6, 7, 4, 8, "RULE7", "bnb"),
		mk(6, 7, 4, 10, "RULE8", "bnb"),
		mk(7, 10, 4, 1, "RULE7", "bnb"),
		mk(7, 10, 4, 9, "RULE8", "bnb"),
		mk(7, 10, 4, 10, "RULE7", "bnb"),
		// The big case: a multi-thousand-node search, seconds of wall time.
		mk(7, 10, 4, 3, "RULE8", "bnb"),
		// Proven-infeasible searches (restrictive rules kill the clip).
		mk(5, 6, 3, 4, "RULE7", "bnb"),
		mk(5, 6, 3, 7, "RULE8", "bnb"),
		// MILP trajectory points, root-only through ~70-node trees.
		mk(4, 5, 3, 3, "RULE1", "ilp"),
		mk(4, 5, 3, 10, "RULE1", "ilp"),
		mk(5, 6, 3, 1, "RULE1", "ilp"),
		mk(5, 6, 3, 2, "RULE8", "ilp"),
		mk(5, 6, 3, 3, "RULE7", "ilp"), // infeasible at the root relaxation
		// Par-8 twins of the node-heavy searches: the deterministic parallel
		// engine on the same instances (answers must equal the serial rows).
		mkPar(6, 7, 4, 3, "RULE8", 8),
		mkPar(7, 10, 4, 3, "RULE8", 8),
		mkPar(5, 6, 3, 4, "RULE7", 8),
	}
}

// BenchRunOptions tunes RunBenchCorpus.
type BenchRunOptions struct {
	Timeout time.Duration // per-case solve budget (default 30s)
	Workers int           // scheduler workers (0 = NumCPU)
	Corpus  string        // "short" or "full", recorded in the document
	// Tracer, if non-nil, receives every case's warm-up solve span (hand it
	// a rotating tracer to bound the output of long corpus runs).
	Tracer *obs.Tracer
	// Flight configures per-node search-event recording on the solve spans
	// (effective only with a Tracer). Off by default: the benchmark exists to
	// measure the solvers, and recording costs wall time.
	Flight obs.FlightOptions
	// Calibration, if non-nil, is stamped into the document's calibration
	// block as-is (cmd/benchrun runs the probe suite once up front and
	// shares the result with its progress output). Nil runs the suite here:
	// schema v5 documents always carry the block.
	Calibration *report.BenchCalibration
	// Sampler, if non-nil, profiles each case's warm-up solve through a
	// sampling window and attaches its benchProfileTopN hottest functions to
	// the case. Attribution matches the per-case runtime deltas: exact under
	// one worker, approximate under parallel workers.
	Sampler *obs.Sampler
	// ProfileW, if non-nil, additionally receives one JSONL record per
	// sampled case (the -sample stream cmd/traceview renders).
	ProfileW *report.JSONLWriter[report.ProfileRecord]
}

// RunBenchCorpus solves every spec and assembles the schema-versioned
// benchmark document. Case failures (budget exhaustion, panics) are recorded
// in the document rather than aborting the run, so a trajectory point is
// always produced; the error return is reserved for invalid specs.
func RunBenchCorpus(ctx context.Context, specs []BenchSpec, opt BenchRunOptions) (*report.BenchDoc, error) {
	if opt.Timeout == 0 {
		opt.Timeout = 30 * time.Second
	}
	for _, s := range specs {
		if _, ok := tech.RuleByName(s.Rule); !ok {
			return nil, fmt.Errorf("exp: bench spec %q: unknown rule %s", s.Name, s.Rule)
		}
		switch s.Solver {
		case "bnb", "ilp":
		default:
			return nil, fmt.Errorf("exp: bench spec %q: unknown solver %s", s.Name, s.Solver)
		}
		if s.Par != 0 && s.Solver == "ilp" {
			return nil, fmt.Errorf("exp: bench spec %q: par applies to bnb only", s.Name)
		}
	}

	// Machine calibration before the corpus runs: the document must say what
	// hardware state produced its wall clocks (schema v5).
	calibration := opt.Calibration
	if calibration == nil {
		res := calib.Run(calib.Options{})
		calibration = &report.BenchCalibration{
			ProbesNs: res.ProbesNs(), ScoreNs: res.ScoreNs, WallMS: res.WallMS,
		}
	}

	jobs := make([]sched.Job[report.BenchCase], len(specs))
	for i := range specs {
		s := specs[i]
		jobs[i] = func(jctx context.Context) (report.BenchCase, error) {
			return runBenchCase(jctx, s, opt)
		}
	}

	// Go runtime profile of the run (schema v3): process-wide deltas from
	// here to after the sweep, plus a 10ms heap-in-use sampler for the peak.
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	stopPeak := make(chan struct{})
	peakCh := make(chan float64, 1)
	go func() {
		peak := float64(ms0.HeapInuse) / (1 << 20)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stopPeak:
				peakCh <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if h := float64(ms.HeapInuse) / (1 << 20); h > peak {
					peak = h
				}
			}
		}
	}()

	results := sched.Run(ctx, jobs, sched.Options{Workers: opt.Workers})

	close(stopPeak)
	peakMB := <-peakCh
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	doc := &report.BenchDoc{
		SchemaVersion: report.BenchSchemaVersion,
		Corpus:        opt.Corpus,
		GoVersion:     runtime.Version(),
		Workers:       opt.Workers,
		Runtime: &report.BenchRuntime{
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			TotalAllocMB: float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			GCPauseMS:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
			NumGC:        int(ms1.NumGC - ms0.NumGC),
			PeakHeapMB:   peakMB,
		},
		Calibration: calibration,
	}
	for i, r := range results {
		bc := r.Value
		if r.Err != nil {
			bc = report.BenchCase{
				Name: specs[i].Name, Rule: specs[i].Rule, Solver: specs[i].Solver,
				Err: r.Err.Error(),
			}
		}
		doc.Cases = append(doc.Cases, bc)
	}
	doc.Finalize()
	return doc, nil
}

// benchTimedRuns is how many timed solves each case gets after its warm-up;
// the case's wall is their minimum. The full corpus that writes a baseline
// and the short corpus gated against it thus time every case the same way.
const benchTimedRuns = 5

// benchProfileTopN caps each case's profile at its hottest functions.
const benchProfileTopN = 15

// runBenchCase synthesizes one pinned instance and solves it once untimed
// and benchTimedRuns times timed. The warm-up solve is the only one traced,
// flight-recorded and sampled, and the runtime deltas are taken across it,
// so a trace holds one solve span per case and instrumentation never enters
// the timed solves. Every solve must return the warm-up's answer and work
// vector; the case reports the fastest timed solve's wall and phases.
func runBenchCase(ctx context.Context, s BenchSpec, opt BenchRunOptions) (report.BenchCase, error) {
	sopt := clip.DefaultSynth(s.Seed)
	sopt.NX, sopt.NY, sopt.NZ = s.NX, s.NY, s.NZ
	sopt.NumNets = s.Nets
	sopt.MaxSinks = s.Sinks
	c := clip.Synthesize(sopt)
	c.Tech = "N28-12T"

	rule, _ := tech.RuleByName(s.Rule)
	g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
	if err != nil {
		return report.BenchCase{}, err
	}
	milp := s.Solver == "ilp"
	solve := func(tr *obs.Tracer) (*core.Solution, error) {
		if milp {
			// The document records the LP phase breakdown of ilp cases.
			return core.SolveILP(g, ilp.Options{
				TimeLimit: opt.Timeout,
				Ctx:       ctx,
				LP:        lp.Options{CollectPhases: true},
				Tracer:    tr,
				Flight:    opt.Flight,
			})
		}
		return core.SolveBnB(g, core.BnBOptions{
			TimeLimit: opt.Timeout, Ctx: ctx, Par: s.Par,
			Tracer: tr, Flight: opt.Flight,
		})
	}

	// Runtime deltas across the warm-up solve. The counters are
	// process-global: exact under one worker, approximate under parallel
	// workers (see the BenchCase field docs). The sampling window shares that
	// attribution model (nil-safe when sampling is off).
	pw := opt.Sampler.Window()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	warm, err := solve(opt.Tracer)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	bc := report.BenchCase{Name: s.Name, Rule: s.Rule, Solver: s.Solver, Par: s.Par}
	bc.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	bc.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	bc.NumGC = int(m1.NumGC - m0.NumGC)
	if p := pw.End(benchProfileTopN); opt.Sampler != nil {
		bp := &report.BenchProfile{Hz: p.Hz, Samples: p.Samples}
		for _, f := range p.Funcs {
			bp.Funcs = append(bp.Funcs, report.BenchFuncSample{Fn: f.Fn, Self: f.Self, Cum: f.Cum})
		}
		bc.Profile = bp
	}
	if err != nil {
		bc.Err = err.Error()
		return bc, nil
	}

	work := warm.Stats.Work(milp)
	var sol *core.Solution
	for i := range benchTimedRuns {
		r, err := solve(nil)
		if err != nil {
			bc.Err = err.Error()
			return bc, nil
		}
		if r.Feasible != warm.Feasible || r.Proven != warm.Proven || r.Cost != warm.Cost ||
			!maps.Equal(r.Stats.Work(milp), work) {
			bc.Err = fmt.Sprintf("timed solve %d differs from the warm-up: cost %d work %v, want cost %d work %v",
				i+1, r.Cost, r.Stats.Work(milp), warm.Cost, work)
			return bc, nil
		}
		if sol == nil || r.Stats.Elapsed < sol.Stats.Elapsed {
			sol = r
		}
	}
	st := sol.Stats
	bc.Feasible = sol.Feasible
	bc.Proven = sol.Proven
	bc.Cost = sol.Cost
	bc.WallMS = float64(st.Elapsed.Microseconds()) / 1000
	bc.Nodes = st.Nodes
	bc.MaxDepth = st.MaxDepth
	bc.LPSolves = st.LPSolves
	bc.SimplexIters = st.LPIters
	bc.Rows = st.ModelRows
	bc.Cols = st.ModelCols
	bc.NNZ = st.ModelNNZ
	bc.PhasesMS = st.Phases.MS()
	bc.LPPhasesMS = st.LPPhases.MS()
	bc.Work = work
	// LP telemetry rides only on ilp cases and only when any counter is
	// nonzero.
	if milp && !st.LP.IsZero() {
		bc.LP = &st.LP
	}
	if bc.Profile != nil && opt.ProfileW != nil {
		perr := opt.ProfileW.Write(report.ProfileRecord{
			Clip: s.Name, Rule: s.Rule, Solver: s.Solver,
			WallMS: bc.WallMS, Hz: bc.Profile.Hz, Samples: bc.Profile.Samples,
			Funcs: bc.Profile.Funcs,
		})
		if perr != nil {
			return bc, perr
		}
	}
	return bc, nil
}
