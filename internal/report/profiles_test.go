package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter[ProfileRecord](&buf)
	recs := []ProfileRecord{
		{Clip: "4x5x3", Rule: "RULE1", Solver: "bnb", WallMS: 12.5, Hz: 100, Samples: 3,
			Funcs: []BenchFuncSample{
				{Fn: "optrouter/internal/core.steinerTree", Self: 2, Cum: 3},
				{Fn: "optrouter/internal/core.(*bnbState).solve", Self: 1, Cum: 3},
			}},
		{Clip: "6x6x3", Rule: "RULE2", Solver: "ilp", WallMS: 400, Hz: 100, Samples: 0},
	}
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadProfiles(buf.Bytes())
	if err != nil {
		t.Fatalf("ReadProfiles: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("ReadProfiles returned %d records, want 2", len(got))
	}
	if got[0].Clip != "4x5x3" || got[0].Samples != 3 || len(got[0].Funcs) != 2 {
		t.Errorf("record 0 = %+v", got[0])
	}
	if got[1].Solver != "ilp" || got[1].Funcs != nil {
		t.Errorf("record 1 = %+v", got[1])
	}
}

func TestProfileWriterNilSafe(t *testing.T) {
	var w *JSONLWriter[ProfileRecord]
	if err := w.Write(ProfileRecord{}); err != nil {
		t.Fatalf("nil Write: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("nil Flush: %v", err)
	}
}

func TestReadProfilesRejects(t *testing.T) {
	good := `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":2}`
	cases := map[string]string{
		"unknown field":   `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":2,"bogus":1}`,
		"missing clip":    `{"rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":2}`,
		"missing solver":  `{"clip":"a","rule":"R","wall_ms":1,"hz":100,"samples":2}`,
		"zero hz":         `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":0,"samples":2}`,
		"negative count":  `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":-1}`,
		"empty func name": `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":2,"funcs":[{"fn":"","self":1,"cum":1}]}`,
		"cum below self":  `{"clip":"a","rule":"R","solver":"bnb","wall_ms":1,"hz":100,"samples":2,"funcs":[{"fn":"f","self":3,"cum":1}]}`,
		"not json":        `nope`,
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			// The bad line rides second so the error must carry line number 2.
			_, err := ReadProfiles([]byte(good + "\n" + bad + "\n"))
			if err == nil {
				t.Fatalf("ReadProfiles accepted %q", bad)
			}
			if !strings.Contains(err.Error(), "line 2") {
				t.Fatalf("error lacks line attribution: %v", err)
			}
		})
	}
	// Blank lines are fine.
	recs, err := ReadProfiles([]byte("\n" + good + "\n\n"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("blank-line handling: %d recs, err=%v", len(recs), err)
	}
}
