package report

import (
	"bytes"
	"encoding/json"
	"fmt"

	"optrouter/internal/lp"
)

// BenchSchemaVersion is the schema of the BENCH_<n>.json documents written by
// cmd/benchrun. Bump it on any breaking change to BenchDoc; trajectory
// tooling accepts committed documents from any version in
// [BenchMinSchemaVersion, BenchSchemaVersion] (the trajectory spans schema
// bumps) and refuses anything else.
//
// v2 added per-case model dimensions (rows/cols/nnz) for ilp cases.
// v3 added Go runtime stats: per-case allocation/GC deltas and a document
// level Runtime block (GOMAXPROCS, total allocations, GC pauses, peak heap).
// v4 added the "portfolio" solver and the per-case Par/Winner fields for
// parallel-BnB and portfolio-race cases. The portfolio race is gone; its
// cases are read-only history in BENCH_3–BENCH_9, and the reader keeps the
// portfolio rules below so those documents still validate and gate.
// v5 added the document-level calibration block (machine-drift probes), the
// per-case deterministic work vector (primary regression-gate signal) and the
// optional per-case sampling profile.
const BenchSchemaVersion = 5

// BenchMinSchemaVersion is the oldest schema still readable (BENCH_0/BENCH_1
// predate the model-dimension fields).
const BenchMinSchemaVersion = 1

// BenchCase is the result of one pinned (clip, rule, solver) benchmark solve.
type BenchCase struct {
	Name   string `json:"name"`   // corpus case name ("seed3-RULE7" style)
	Rule   string `json:"rule"`   // rule configuration solved under
	Solver string `json:"solver"` // "bnb" or "ilp"; "portfolio" (v4+) in BENCH_3–BENCH_9 only

	// Par is the in-solve worker count of the deterministic parallel BnB (0 =
	// serial engine); Winner names the engine ("bnb"/"ilp") whose result a
	// portfolio case of BENCH_3–BENCH_9 returned. Schema v4+.
	Par    int    `json:"par,omitempty"`
	Winner string `json:"winner,omitempty"`

	Feasible bool   `json:"feasible"`
	Proven   bool   `json:"proven"`
	Cost     int    `json:"cost"` // routing cost (0 when infeasible)
	Err      string `json:"err,omitempty"`

	WallMS       float64 `json:"wall_ms"`
	Nodes        int     `json:"nodes"`
	MaxDepth     int     `json:"max_depth"`
	LPSolves     int     `json:"lp_solves"`
	SimplexIters int     `json:"simplex_iters"`

	// LP-relaxation model dimensions (ilp cases only; schema v2+). Rows and
	// Cols are the constraint/variable counts, NNZ the structural matrix
	// nonzeros — the axes wall-time speedups are correlated against.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	NNZ  int `json:"nnz,omitempty"`

	// PhasesMS is the solver's wall-time attribution in milliseconds;
	// LPPhasesMS the simplex-internal sub-breakdown (ilp cases only).
	PhasesMS   map[string]float64 `json:"phases_ms,omitempty"`
	LPPhasesMS map[string]float64 `json:"lp_phases_ms,omitempty"`

	// Go runtime deltas across the case's solve (schema v3+). The counters
	// are process-global, so they are exact under -j1 and approximate (the
	// case's share plus concurrent cases') under parallel workers; wall-time
	// regressions with flat allocation deltas point at algorithmic causes,
	// rising deltas at allocation churn.
	//
	// Omission rule (schema note): these fields carry json omitempty, so each
	// is present iff its delta was nonzero — fast cases legitimately omit
	// gc_pause_ms/num_gc (no GC cycle completed inside the case) while slow
	// cases carry them. ValidateBench enforces the consistency half: the
	// fields must be non-negative, and a nonzero gc_pause_ms without a
	// num_gc is a malformed document (a pause total can only grow when a
	// cycle completes).
	AllocMB   float64 `json:"alloc_mb,omitempty"`    // bytes allocated during the case
	GCPauseMS float64 `json:"gc_pause_ms,omitempty"` // stop-the-world pause total
	NumGC     int     `json:"num_gc,omitempty"`      // GC cycles completed

	// Work is the case's deterministic work vector (schema v5+): cost
	// counters pinned byte-identical for a given (case, solver, par) key —
	// nodes, simplex iterations, FTRAN/BTRAN nonzeros, Steiner DP cells,
	// DRC checks. Required on successful non-portfolio cases; the legacy
	// portfolio cases of BENCH_3–BENCH_9 omit it (the race was
	// scheduling-dependent), and parallel-BnB
	// cases carry only the counters deterministic under work stealing.
	Work map[string]int64 `json:"work,omitempty"`

	// Profile is the case's sampling-profiler summary (schema v5+, present
	// only when the run sampled). Attribution matches the runtime deltas:
	// exact under -j1, approximate under parallel workers.
	Profile *BenchProfile `json:"profile,omitempty"`

	// LP is the LP engine's telemetry counters, keyed by lp.Counter name and
	// with zero counters left out (ilp cases only; optional — documents
	// recorded before the pricing layer existed, and runs with all-zero
	// counters, omit it). These counters are informational, NOT part of the
	// pinned work vector.
	LP *lp.Counters `json:"lp,omitempty"`
}

// BenchProfile is a per-case top-N summary from obs.Sampler.
type BenchProfile struct {
	Hz      int               `json:"hz"`      // sampling rate
	Samples int64             `json:"samples"` // goroutine stacks aggregated
	Funcs   []BenchFuncSample `json:"funcs,omitempty"`
}

// BenchFuncSample is one function's sample counts in a BenchProfile.
type BenchFuncSample struct {
	Fn   string `json:"fn"`
	Self int64  `json:"self"`
	Cum  int64  `json:"cum"`
}

// BenchCalibration is the machine-drift evidence stamped into every schema
// v5+ document: the calibration suite's per-probe ns/op and composite score
// measured immediately before the corpus ran. CompareBench divides two
// documents' probes into a machine ratio and reports calibrated wall ratios
// (raw ÷ machine) next to raw ones.
type BenchCalibration struct {
	ProbesNs map[string]float64 `json:"probes_ns"` // probe name → best-of-rounds ns/op
	ScoreNs  float64            `json:"score_ns"`  // geomean of the machine probes
	WallMS   float64            `json:"wall_ms"`   // suite wall time
}

// BenchTotals aggregates the corpus for at-a-glance trajectory diffs.
type BenchTotals struct {
	Cases        int     `json:"cases"`
	Failed       int     `json:"failed"`
	WallMS       float64 `json:"wall_ms"`
	Nodes        int     `json:"nodes"`
	LPSolves     int     `json:"lp_solves"`
	SimplexIters int     `json:"simplex_iters"`
	// PhasesMS folds every case's attribution into one per-sweep breakdown.
	PhasesMS map[string]float64 `json:"phases_ms,omitempty"`
}

// BenchRuntime captures the Go runtime's view of the whole corpus run
// (schema v3+): totals are process-wide deltas from run start to run end,
// and PeakHeapMB is the largest heap-in-use observed by a sampler during the
// run. Together with the per-case deltas it separates "the solver got
// slower" from "the process allocated or paused more".
type BenchRuntime struct {
	GOMAXPROCS   int     `json:"gomaxprocs"`
	TotalAllocMB float64 `json:"total_alloc_mb"`
	GCPauseMS    float64 `json:"gc_pause_ms"`
	NumGC        int     `json:"num_gc"`
	PeakHeapMB   float64 `json:"peak_heap_mb"`
}

// BenchDoc is one benchmark-trajectory document (one BENCH_<n>.json).
type BenchDoc struct {
	SchemaVersion int    `json:"schema_version"`
	Corpus        string `json:"corpus"` // "short" or "full"
	GoVersion     string `json:"go_version"`
	Workers       int    `json:"workers"`

	// Runtime is the Go runtime profile of the run (required from schema v3).
	Runtime *BenchRuntime `json:"runtime,omitempty"`

	// Calibration is the machine-drift probe result (required from schema v5).
	Calibration *BenchCalibration `json:"calibration,omitempty"`

	Cases  []BenchCase `json:"cases"`
	Totals BenchTotals `json:"totals"`
}

// Finalize recomputes Totals from Cases (cmd/benchrun calls it before
// writing, so Totals can never drift from the case list).
func (d *BenchDoc) Finalize() {
	t := BenchTotals{Cases: len(d.Cases)}
	for _, c := range d.Cases {
		if c.Err != "" {
			t.Failed++
		}
		t.WallMS += c.WallMS
		t.Nodes += c.Nodes
		t.LPSolves += c.LPSolves
		t.SimplexIters += c.SimplexIters
		for k, v := range c.PhasesMS {
			if t.PhasesMS == nil {
				t.PhasesMS = map[string]float64{}
			}
			t.PhasesMS[k] += v
		}
	}
	d.Totals = t
}

// MarshalBench renders the document as the indented, newline-terminated JSON
// committed as BENCH_<n>.json (stable formatting keeps trajectory diffs
// readable).
func MarshalBench(d *BenchDoc) ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ValidateBench parses and validates one benchmark document, returning the
// first schema violation. It is the gate ci.sh runs over both the freshly
// emitted short-corpus document and the committed BENCH_<n>.json files.
func ValidateBench(data []byte) (*BenchDoc, error) {
	var doc BenchDoc
	dec := jsonStrictDecoder(data)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench: invalid JSON: %w", err)
	}
	if doc.SchemaVersion < BenchMinSchemaVersion || doc.SchemaVersion > BenchSchemaVersion {
		return nil, fmt.Errorf("bench: schema_version %d, want %d..%d",
			doc.SchemaVersion, BenchMinSchemaVersion, BenchSchemaVersion)
	}
	if doc.Corpus != "short" && doc.Corpus != "full" {
		return nil, fmt.Errorf("bench: corpus %q, want short|full", doc.Corpus)
	}
	if doc.GoVersion == "" {
		return nil, fmt.Errorf("bench: missing go_version")
	}
	if len(doc.Cases) == 0 {
		return nil, fmt.Errorf("bench: no cases")
	}
	if doc.SchemaVersion >= 3 && doc.Runtime == nil {
		return nil, fmt.Errorf("bench: schema v3 document missing runtime block")
	}
	if doc.Runtime != nil && doc.Runtime.GOMAXPROCS <= 0 {
		return nil, fmt.Errorf("bench: runtime block with gomaxprocs %d", doc.Runtime.GOMAXPROCS)
	}
	if doc.SchemaVersion >= 5 && doc.Calibration == nil {
		return nil, fmt.Errorf("bench: schema v5 document missing calibration block")
	}
	if cal := doc.Calibration; cal != nil {
		if len(cal.ProbesNs) == 0 {
			return nil, fmt.Errorf("bench: calibration block without probes")
		}
		for name, ns := range cal.ProbesNs {
			if ns <= 0 {
				return nil, fmt.Errorf("bench: calibration probe %q ns_per_op %g, want > 0", name, ns)
			}
		}
		if cal.ScoreNs <= 0 {
			return nil, fmt.Errorf("bench: calibration score_ns %g, want > 0", cal.ScoreNs)
		}
	}
	seen := map[string]bool{}
	for i, c := range doc.Cases {
		key := c.Name + "/" + c.Solver
		switch {
		case c.Name == "":
			return nil, fmt.Errorf("bench: case %d: missing name", i)
		case c.Rule == "":
			return nil, fmt.Errorf("bench: case %q: missing rule", c.Name)
		case c.Solver != "bnb" && c.Solver != "ilp" && c.Solver != "portfolio":
			return nil, fmt.Errorf("bench: case %q: solver %q, want bnb|ilp|portfolio", c.Name, c.Solver)
		case c.Solver == "portfolio" && doc.SchemaVersion < 4:
			return nil, fmt.Errorf("bench: case %q: portfolio solver needs schema v4", c.Name)
		case c.Solver == "portfolio" && c.Err == "" && c.Winner != "bnb" && c.Winner != "ilp":
			return nil, fmt.Errorf("bench: case %q: portfolio winner %q, want bnb|ilp", c.Name, c.Winner)
		case c.Solver != "portfolio" && c.Winner != "":
			return nil, fmt.Errorf("bench: case %q: winner set on %s case", c.Name, c.Solver)
		case c.Par < 0 || (c.Par > 0 && c.Solver == "ilp"):
			return nil, fmt.Errorf("bench: case %q: par %d invalid for solver %s", c.Name, c.Par, c.Solver)
		case seen[key]:
			return nil, fmt.Errorf("bench: duplicate case %q", key)
		case c.WallMS < 0:
			return nil, fmt.Errorf("bench: case %q: negative wall_ms", c.Name)
		// Legacy portfolio cases are exempt from the node floor: a race
		// decided through the exchange (foreign bound meets local incumbent)
		// could return a winner that never popped a node of its own.
		case c.Err == "" && c.Feasible && c.Nodes <= 0 && c.Solver != "portfolio":
			return nil, fmt.Errorf("bench: case %q: no nodes recorded", c.Name)
		case c.Err == "" && len(c.PhasesMS) == 0:
			return nil, fmt.Errorf("bench: case %q: missing phase breakdown", c.Name)
		case doc.SchemaVersion >= 2 && c.Err == "" && c.Solver == "ilp" &&
			(c.Rows <= 0 || c.Cols <= 0 || c.NNZ <= 0):
			return nil, fmt.Errorf("bench: case %q: missing model dimensions (schema v2 ilp case)", c.Name)
		// Runtime-delta omission rules (schema v3+): present iff nonzero,
		// never negative, and a GC pause total implies a completed cycle.
		case c.AllocMB < 0 || c.GCPauseMS < 0 || c.NumGC < 0:
			return nil, fmt.Errorf("bench: case %q: negative runtime delta", c.Name)
		case c.GCPauseMS > 0 && c.NumGC == 0:
			return nil, fmt.Errorf("bench: case %q: gc_pause_ms %g without num_gc (pause totals only grow when a cycle completes)", c.Name, c.GCPauseMS)
		// Work-vector rules (schema v5+): required on successful
		// non-portfolio cases, forbidden on the legacy portfolio cases (the
		// race was scheduling-dependent), counters non-negative.
		case doc.SchemaVersion >= 5 && c.Err == "" && c.Solver != "portfolio" && len(c.Work) == 0:
			return nil, fmt.Errorf("bench: case %q: missing work vector (schema v5)", c.Name)
		case c.Solver == "portfolio" && len(c.Work) > 0:
			return nil, fmt.Errorf("bench: case %q: work vector on portfolio case (race is nondeterministic)", c.Name)
		case doc.SchemaVersion < 5 && (len(c.Work) > 0 || c.Profile != nil):
			return nil, fmt.Errorf("bench: case %q: work/profile fields need schema v5", c.Name)
		}
		for k, v := range c.Work {
			if v < 0 {
				return nil, fmt.Errorf("bench: case %q: negative work counter %s=%d", c.Name, k, v)
			}
		}
		if c.LP != nil && c.Solver != "ilp" {
			return nil, fmt.Errorf("bench: case %q: lp block on %s case (ilp only)", c.Name, c.Solver)
		}
		if p := c.Profile; p != nil {
			if p.Hz <= 0 || p.Samples < 0 {
				return nil, fmt.Errorf("bench: case %q: malformed profile (hz %d, samples %d)", c.Name, p.Hz, p.Samples)
			}
			for _, f := range p.Funcs {
				if f.Fn == "" || f.Self < 0 || f.Cum < f.Self {
					return nil, fmt.Errorf("bench: case %q: malformed profile sample %+v", c.Name, f)
				}
			}
		}
		seen[key] = true
	}
	want := doc.Totals
	check := doc
	check.Finalize()
	if got := check.Totals; got.Cases != want.Cases || got.Failed != want.Failed ||
		got.Nodes != want.Nodes || got.LPSolves != want.LPSolves ||
		got.SimplexIters != want.SimplexIters {
		return nil, fmt.Errorf("bench: totals disagree with cases: have %+v, recomputed %+v", want, got)
	}
	return &doc, nil
}

// jsonStrictDecoder decodes rejecting unknown fields, so stale documents from
// an older schema fail loudly instead of silently dropping data.
func jsonStrictDecoder(data []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec
}
