package exp

import (
	"maps"
	"strings"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/obs"
	"optrouter/internal/tech"
)

// TestSolveMetricsGolden pins the run-wide solve counters a study folds into
// its metrics registry (the /metrics and beoleval -stats metrics.json
// schema): one 5x6x3 clip swept under RULE1-11 by the serial CDC-BnB on one
// worker. The sweep's dominance chain decides 8 of the 11 cells without a
// search ("implied"); "solves" counts the 3 it searches. Timing counters (*_ms, *_us) are left out; every other counter key
// and value is pinned, so a change to how solve counters are declared or
// rendered shows here as a rename, an added key or a moved value.
func TestSolveMetricsGolden(t *testing.T) {
	sopt := clip.DefaultSynth(3)
	sopt.NX, sopt.NY, sopt.NZ = 5, 6, 3
	sopt.NumNets = 3
	sopt.MaxSinks = 2
	c := clip.Synthesize(sopt)
	c.Tech = "N28-12T"

	reg := obs.NewRegistry()
	_, results, err := DeltaCostStudy(tech.N28T12(), []*clip.Clip{c}, SolveOptions{
		PerClipTimeout: 60 * time.Second, Workers: 1, Par: 0, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Proven {
			t.Fatalf("%s unproven: the golden needs every solve to end by proof", r.Rule)
		}
	}

	got := map[string]int64{}
	for k, v := range reg.Snapshot().Counters {
		if !strings.HasSuffix(k, "_ms") && !strings.HasSuffix(k, "_us") {
			got[k] = v
		}
	}
	want := map[string]int64{
		"bans_generated":     283,
		"btran_nnz":          0,
		"dives":              2,
		"drc_checks":         110,
		"ftran_nnz":          0,
		"implied":            8,
		"incumbents":         1,
		"infeasible":         8,
		"lp_solves":          0,
		"lp_warm_starts":     0,
		"nodes":              99,
		"sched_jobs_done":    1,
		"simplex_iters":      0,
		"solves":             3,
		"steiner_cache_hits": 241,
		"steiner_cells":      38013,
		"steiner_inherited":  966,
		"steiner_solves":     344,
	}
	if !maps.Equal(got, want) {
		t.Errorf("solve counters:\n got %v\nwant %v", got, want)
	}
}
