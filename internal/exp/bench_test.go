package exp

import (
	"bytes"
	"context"
	"testing"

	"optrouter/internal/obs"
	"optrouter/internal/report"
)

// TestBenchCaseTracesWarmUpOnly checks that a bench case, solved once as a
// warm-up and benchTimedRuns times timed, leaves one solve span in the trace
// and a successful, timed result.
func TestBenchCaseTracesWarmUpOnly(t *testing.T) {
	specs := []BenchSpec{
		{Name: "6x7x4-s3-RULE1-bnb", Seed: 3, NX: 6, NY: 7, NZ: 4, Nets: 3, Sinks: 2, Rule: "RULE1", Solver: "bnb"},
		{Name: "4x5x3-s3-RULE1-ilp", Seed: 3, NX: 4, NY: 5, NZ: 3, Nets: 3, Sinks: 2, Rule: "RULE1", Solver: "ilp"},
	}
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	doc, err := RunBenchCorpus(context.Background(), specs,
		BenchRunOptions{Workers: 1, Tracer: tr, Calibration: &report.BenchCalibration{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range doc.Cases {
		if c.Err != "" || !c.Proven || c.WallMS <= 0 || len(c.Work) == 0 {
			t.Errorf("case %s: %+v", c.Name, c)
		}
	}
	recs, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, r := range recs {
		spans[r.Name]++
	}
	if spans["bnb.solve"] != 1 || spans["ilp.solve"] != 1 {
		t.Errorf("solve spans %v, want one bnb.solve and one ilp.solve", spans)
	}
}
