package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"optrouter/internal/core"
)

func TestConvergenceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter[ConvergenceRecord](&buf)
	recs := []ConvergenceRecord{
		{Clip: "clip0", Rule: "RULE7", Solver: "bnb", Termination: "optimal",
			Feasible: true, Cost: 65, Nodes: 3941, MaxDepth: 13, WallMS: 851.2,
			Trace: []core.BoundSample{
				{ElapsedMS: 0.5, Nodes: 1, Bound: 51, Incumbent: -1},
				{ElapsedMS: 851, Nodes: 3941, Bound: 65, Incumbent: 65},
			}},
		{Clip: "clip1", Rule: "RULE8", Solver: "ilp", Termination: "infeasible"},
	}
	var wg sync.WaitGroup
	for _, r := range recs {
		wg.Add(1)
		go func(r ConvergenceRecord) {
			defer wg.Done()
			if err := w.Write(r); err != nil {
				t.Errorf("write: %v", err)
			}
		}(r)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var back ConvergenceRecord
		if err := json.Unmarshal(sc.Bytes(), &back); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", n, err)
		}
		if back.Clip == "clip0" && len(back.Trace) != 2 {
			t.Errorf("clip0 trace lost: %+v", back)
		}
		n++
	}
	if n != len(recs) {
		t.Errorf("wrote %d lines, want %d", n, len(recs))
	}

	var nilW *JSONLWriter[ConvergenceRecord]
	if err := nilW.Write(recs[0]); err != nil {
		t.Errorf("nil writer Write: %v", err)
	}
	if err := nilW.Flush(); err != nil {
		t.Errorf("nil writer Flush: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestConvergenceWriterStickyError(t *testing.T) {
	w := NewJSONLWriter[ConvergenceRecord](failWriter{})
	// The bufio layer absorbs small writes; force the error out via Flush.
	if err := w.Write(ConvergenceRecord{Clip: "x"}); err != nil {
		t.Logf("write surfaced error early: %v", err)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush to failing sink returned nil")
	}
	if err := w.Write(ConvergenceRecord{Clip: "y"}); err == nil {
		t.Error("error did not stick on later writes")
	}
}

// TestNewConvergenceRecordLine pins the JSONL line of a record built from a
// solve's telemetry, byte for byte.
func TestNewConvergenceRecordLine(t *testing.T) {
	st := core.SolveStats{
		Termination: "optimal", Nodes: 3941, MaxDepth: 13,
		Elapsed:    851234567 * time.Nanosecond,
		BoundTrace: []core.BoundSample{{ElapsedMS: 0.5, Nodes: 1, Bound: 51, Incumbent: -1}},
	}
	var buf bytes.Buffer
	w := NewJSONLWriter[ConvergenceRecord](&buf)
	if err := w.Write(NewConvergenceRecord("clip0", "RULE7", "bnb", true, 65, st)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"clip":"clip0","rule":"RULE7","solver":"bnb","termination":"optimal","feasible":true,"cost":65,` +
		`"nodes":3941,"max_depth":13,"wall_ms":851.234,` +
		`"trace":[{"elapsed_ms":0.5,"nodes":1,"depth":0,"open":0,"bound":51,"incumbent":-1}]}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("line\n got %s\nwant %s", got, want)
	}
}
