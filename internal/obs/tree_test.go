package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildSampleTrace emits a realistic nested trace through a real Tracer.
func buildSampleTrace(t *testing.T) []SpanRecord {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	root := tr.Start("solve", A("clip", "c1"))
	child := root.Child("heuristic")
	time.Sleep(time.Millisecond)
	child.End()
	root.Event("incumbent", A("cost", 42))
	grand := root.Child("phase")
	grand.Event("node", A("n", 1))
	grand.End()
	root.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestBuildTree(t *testing.T) {
	recs := buildSampleTrace(t)
	tree, err := BuildTree(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(tree.Roots))
	}
	root := tree.Roots[0]
	if root.Name != "solve" {
		t.Errorf("root = %s, want solve", root.Name)
	}
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d, want 3", len(root.Children))
	}
	// Children sorted by start: heuristic, incumbent event, phase.
	if root.Children[0].Name != "heuristic" || root.Children[2].Name != "phase" {
		t.Errorf("child order: %s, %s, %s", root.Children[0].Name,
			root.Children[1].Name, root.Children[2].Name)
	}
	if tree.Spans != 3 || tree.Events != 2 {
		t.Errorf("spans/events = %d/%d, want 3/2", tree.Spans, tree.Events)
	}
	if got := root.AttrString("clip"); got != "c1" {
		t.Errorf("clip attr = %q", got)
	}
	if self := root.SelfUS(); self < 0 || self > root.DurUS {
		t.Errorf("self time %dus outside [0, %dus]", self, root.DurUS)
	}
	n := 0
	tree.Walk(func(*TraceNode) { n++ })
	if n != len(recs) {
		t.Errorf("walk visited %d nodes, want %d", n, len(recs))
	}
}

func TestValidateTraceWellFormed(t *testing.T) {
	recs := buildSampleTrace(t)
	if probs := ValidateTrace(recs); len(probs) != 0 {
		t.Errorf("well-formed trace reported problems: %v", probs)
	}
}

func TestValidateTraceCatchesCorruption(t *testing.T) {
	base := buildSampleTrace(t)

	orphan := append([]SpanRecord(nil), base...)
	orphan = append(orphan, SpanRecord{ID: 99, Parent: 12345, Name: "lost"})
	if probs := ValidateTrace(orphan); len(probs) == 0 {
		t.Error("unresolved parent not reported")
	}

	dup := append([]SpanRecord(nil), base...)
	dup = append(dup, SpanRecord{ID: base[0].ID, Name: "dup"})
	if probs := ValidateTrace(dup); len(probs) == 0 {
		t.Error("duplicate id not reported")
	}

	// A child overhanging its parent's end by far more than clock truncation.
	bad := append([]SpanRecord(nil), base...)
	for i := range bad {
		if bad[i].Name == "heuristic" {
			bad[i].DurUS += 10_000_000
		}
	}
	if probs := ValidateTrace(bad); len(probs) == 0 {
		t.Error("child escaping parent time range not reported")
	}

	// A phase breakdown that misses its span's duration by more than 10% +
	// 2ms; one within the tolerance passes.
	phased := func(durUS int64, phases map[string]interface{}) []string {
		recs := append([]SpanRecord(nil), base...)
		recs = append(recs, SpanRecord{ID: 98, Name: "solve", DurUS: durUS,
			Attrs: map[string]interface{}{"phases_ms": phases}})
		return ValidateTrace(recs)
	}
	if probs := phased(100_000, map[string]interface{}{"search": 40.0, "steiner": 20.0}); len(probs) == 0 {
		t.Error("phases_ms summing to 60ms on a 100ms span not reported")
	}
	if probs := phased(100_000, map[string]interface{}{"search": 45.0, "steiner": 50.0}); len(probs) != 0 {
		t.Errorf("phases_ms within tolerance reported: %v", probs)
	}
}

func TestRotatingTracerBoundsOutputAndCountsDrops(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.jsonl")
	tr, err := NewRotatingTracer(path, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctr := &Counter{}
	tr.SetDropCounter(ctr)
	// Each record is ~60 bytes; thousands of them overflow 3x4KiB many times.
	const total = 5000
	for i := 0; i < total; i++ {
		tr.Event(nil, "node", A("n", i))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	kept := 0
	var liveSize int64
	for _, name := range []string{path, path + ".1", path + ".2"} {
		f, err := os.Open(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
		kept += len(recs)
		st, _ := os.Stat(name)
		if st.Size() > 4096 {
			t.Errorf("%s is %d bytes, over the 4096 cap", name, st.Size())
		}
		if name == path {
			liveSize = st.Size()
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("archive beyond keep=3 exists: %s.3", path)
	}
	if liveSize == 0 {
		t.Error("live trace file is empty")
	}
	if kept == 0 || kept >= total {
		t.Errorf("kept = %d records, want 0 < kept < %d", kept, total)
	}
	if got := tr.Dropped(); got != int64(total-kept) {
		t.Errorf("Dropped() = %d, want %d (total %d - kept %d)", got, total-kept, total, kept)
	}
	if ctr.Value() != tr.Dropped() {
		t.Errorf("drop counter mirror = %d, want %d", ctr.Value(), tr.Dropped())
	}
}

func TestRotatingTracerTruncateInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	tr, err := NewRotatingTracer(path, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		tr.Event(nil, "node", A("n", i), A("pad", fmt.Sprintf("%032d", i)))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".1"); !os.IsNotExist(err) {
		t.Errorf("keep=1 must not create archives")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadTrace(f)
	if err != nil {
		t.Fatalf("live file does not parse: %v", err)
	}
	if len(recs) == 0 || tr.Dropped() == 0 {
		t.Errorf("kept=%d dropped=%d, want both > 0", len(recs), tr.Dropped())
	}
}
