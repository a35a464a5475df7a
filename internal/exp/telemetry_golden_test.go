package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"optrouter/internal/lp"
	"optrouter/internal/obs"
	"optrouter/internal/report"
)

// TestLPTelemetryGolden pins how one MILP solve's LP telemetry is rendered:
// the ilp.solve span's LP attrs, the lp block the bench runner writes for the
// case, and report.ExtractSolves' parse of that span. The clip is the bench
// corpus' 5x6x3-s1 RULE1 ilp case, a 77-node search on which candidate-list
// hits, dual bound flips, eta-length refactorizations and both presolve
// reductions fire. A change to how the counters are carried must leave
// every value here unchanged.
func TestLPTelemetryGolden(t *testing.T) {
	spec := BenchSpec{Name: "5x6x3-s1-RULE1-ilp", Seed: 1, NX: 5, NY: 6, NZ: 3,
		Nets: 3, Sinks: 2, Rule: "RULE1", Solver: "ilp"}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	doc, err := RunBenchCorpus(context.Background(), []BenchSpec{spec},
		BenchRunOptions{Workers: 1, Tracer: tr, Calibration: &report.BenchCalibration{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(doc.Cases) != 1 || doc.Cases[0].Err != "" {
		t.Fatalf("bench run: %+v", doc.Cases)
	}

	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var span *obs.SpanRecord
	for i := range recs {
		if recs[i].Name == "ilp.solve" {
			span = &recs[i]
		}
	}
	if span == nil {
		t.Fatal("no ilp.solve span in the trace")
	}
	gotAttrs := map[string]float64{}
	for k, v := range span.Attrs {
		if strings.HasPrefix(k, "lp_") || strings.HasPrefix(k, "presolve_") {
			f, _ := v.(float64)
			gotAttrs[k] = f
		}
	}
	wantAttrs := map[string]float64{
		"lp_solves": 77, "lp_iters": 1049,
		"lp_candidate_hits": 52, "lp_ref_resets": 0, "lp_dual_bound_flips": 8,
		"lp_presolve_rows": 19, "lp_presolve_cols": 14,
		"lp_refactor_eta_len": 5, "lp_refactor_fill": 0,
		"lp_refactor_pivot_quality": 0, "lp_refactor_update_rejected": 0,
	}
	if !reflect.DeepEqual(gotAttrs, wantAttrs) {
		t.Errorf("ilp.solve LP attrs\n got  %v\n want %v", gotAttrs, wantAttrs)
	}

	block, err := json.Marshal(doc.Cases[0].LP)
	if err != nil {
		t.Fatal(err)
	}
	wantBlock := `{"candidate_hits":52,"dual_bound_flips":8,"presolve_rows":19,"presolve_cols":14,"refactor_eta_len":5}`
	if string(block) != wantBlock {
		t.Errorf("bench lp block\n got  %s\n want %s", block, wantBlock)
	}

	tree, err := obs.BuildTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	solves := report.ExtractSolves(tree)
	if len(solves) != 1 {
		t.Fatalf("ExtractSolves found %d solves, want 1", len(solves))
	}
	s := solves[0]
	gotParse := map[string]int64{"lp_iters": s.LPIters}
	for k := range lp.NumCounters {
		gotParse[k.String()] = int64(s.LP[k])
	}
	wantParse := map[string]int64{
		"lp_iters": 1049, "candidate_hits": 52, "ref_resets": 0,
		"dual_bound_flips": 8, "presolve_rows": 19, "presolve_cols": 14,
		"refactor_eta_len": 5, "refactor_fill": 0,
		"refactor_pivot_quality": 0, "refactor_update_rejected": 0,
	}
	if !reflect.DeepEqual(gotParse, wantParse) {
		t.Errorf("ExtractSolves LP counters\n got  %v\n want %v", gotParse, wantParse)
	}
}
