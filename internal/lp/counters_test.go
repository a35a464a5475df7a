package lp

import (
	"encoding/json"
	"testing"
)

// TestCountersJSON pins the bench-document form of Counters: nonzero
// entries only, keyed by name in declaration order, read back exactly, and
// an unknown or negative counter rejected.
func TestCountersJSON(t *testing.T) {
	var c Counters
	c[RefactorEtaLen] = 5
	c[CandidateHits] = 52
	c[PresolveCols] = 14
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"candidate_hits":52,"presolve_cols":14,"refactor_eta_len":5}`
	if string(b) != want {
		t.Fatalf("marshal = %s, want %s", b, want)
	}
	var back Counters
	if err := json.Unmarshal(b, &back); err != nil || back != c {
		t.Fatalf("unmarshal = %v, %v; want %v", back, err, c)
	}
	if got := c.String(); got != "candidate_hits=52 presolve_cols=14 refactor_eta_len=5" {
		t.Errorf("String = %q", got)
	}
	for _, bad := range []string{`{"dual_flips":1}`, `{"ref_resets":-1}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("unmarshal %s: no error", bad)
		}
	}
}
