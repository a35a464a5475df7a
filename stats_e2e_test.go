package optrouter

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"optrouter/internal/obs"
)

// buildCmds compiles the named commands into one temp dir and returns it.
func buildCmds(t *testing.T, names ...string) string {
	t.Helper()
	bin := t.TempDir()
	for _, name := range names {
		build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		build.Dir = "."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}
	return bin
}

// TestStatsEndToEnd is the observability golden test: beoleval -stats on a
// tiny multi-clip run must emit a metrics JSON document with the documented
// schema keys populated, and -trace -flight must produce a well-formed
// JSON-lines span trace that cmd/traceview validates and summarizes.
func TestStatsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmds(t, "beoleval", "traceview")

	outDir := t.TempDir()
	tracePath := filepath.Join(outDir, "trace.jsonl")
	cmd := exec.Command(filepath.Join(bin, "beoleval"),
		"-tech", "N28-12T", "-fig10", "-stats",
		"-trace", tracePath, "-flight", "-csv", outDir,
		"-insts", "120", "-topk", "1", "-maxnets", "3", "-timeout", "3s")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("beoleval: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(filepath.Join(outDir, "metrics.json"))
	if err != nil {
		t.Fatalf("metrics.json not written: %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v\n%s", err, raw)
	}
	for _, key := range []string{
		"nodes", "lp_solves", "wall_ms", "solves",
		"steiner_solves", "drc_checks", "incumbents", "run_wall_ms",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("metrics.json missing key %q", key)
		}
	}
	if v, _ := doc["nodes"].(float64); v <= 0 {
		t.Errorf("nodes = %v, want > 0", doc["nodes"])
	}
	if v, _ := doc["solves"].(float64); v <= 0 {
		t.Errorf("solves = %v, want > 0", doc["solves"])
	}
	if hist, ok := doc["solve_ms"].(map[string]interface{}); !ok {
		t.Errorf("solve_ms histogram missing or malformed: %v", doc["solve_ms"])
	} else if c, _ := hist["count"].(float64); c != doc["solves"].(float64) {
		t.Errorf("solve_ms count = %v, want %v", hist["count"], doc["solves"])
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	defer tf.Close()
	recs, err := obs.ReadTrace(tf)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	solves := 0
	nodeEvents := 0
	for _, r := range recs {
		if r.Name == "bnb.solve" {
			solves++
			if _, ok := r.Attrs["termination"]; !ok {
				t.Errorf("bnb.solve span missing termination attr: %+v", r)
			}
			if _, ok := r.Attrs["phases_ms"]; !ok {
				t.Errorf("bnb.solve span missing phases_ms attr: %+v", r)
			}
		}
		if r.Event && r.Name == "node" {
			nodeEvents++
		}
	}
	if solves == 0 {
		t.Fatalf("no bnb.solve spans among %d trace records", len(recs))
	}
	if nodeEvents == 0 {
		t.Fatal("-flight produced no node events")
	}
	if probs := obs.ValidateTrace(recs); len(probs) > 0 {
		t.Fatalf("trace not well-formed: %v", probs)
	}

	// The shipped analyzer must agree: -validate passes, and the default
	// summary reports every solve.
	tv := exec.Command(filepath.Join(bin, "traceview"), "-validate", tracePath)
	if out, err := tv.CombinedOutput(); err != nil {
		t.Fatalf("traceview -validate: %v\n%s", err, out)
	}
	tv = exec.Command(filepath.Join(bin, "traceview"), tracePath)
	out, err := tv.CombinedOutput()
	if err != nil {
		t.Fatalf("traceview: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "solve 0: bnb") || !strings.Contains(string(out), "flight:") {
		t.Errorf("traceview summary missing solve/flight lines:\n%s", out)
	}
}

// TestFlightNeedsTrace: every solving command rejects -flight without -trace
// before doing any work, with a nonzero exit and the reason.
func TestFlightNeedsTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	names := []string{"optroute", "beoleval", "benchrun"}
	bin := buildCmds(t, names...)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			out, err := exec.Command(filepath.Join(bin, name), "-flight").CombinedOutput()
			if err == nil {
				t.Fatalf("%s -flight exited 0:\n%s", name, out)
			}
			if !strings.Contains(string(out), "-flight needs -trace") {
				t.Fatalf("%s -flight: %v, output lacks the reason:\n%s", name, err, out)
			}
		})
	}
}

// interruptWhenTracing starts cmd, waits until the trace file has grown past
// a few records (so the interrupt lands mid-sweep, not during setup), sends
// SIGINT and waits for exit (any status — a cancelled sweep exits non-zero
// by design). Flight events flush the tracer's buffer continuously, so file
// growth means solves are in flight.
func interruptWhenTracing(t *testing.T, cmd *exec.Cmd, tracePath string) {
	t.Helper()
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(tracePath); err == nil && fi.Size() > 4096 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil && !strings.Contains(err.Error(), "finished") {
		t.Fatalf("signal: %v", err)
	}
	cmd.Wait()
}

// TestTraceSIGINT: an interrupted sweep must still flush a parseable trace —
// the teardown defers run on the cancellation path in both CLIs.
func TestTraceSIGINT(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildCmds(t, "beoleval", "optroute")

	t.Run("beoleval", func(t *testing.T) {
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		cmd := exec.Command(filepath.Join(bin, "beoleval"),
			"-tech", "N28-12T", "-fig10", "-quiet",
			"-trace", tracePath, "-flight",
			"-insts", "200", "-topk", "2", "-maxnets", "4", "-timeout", "10s")
		interruptWhenTracing(t, cmd, tracePath)
		assertParseableTrace(t, tracePath)
	})

	t.Run("optroute", func(t *testing.T) {
		tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
		cmd := exec.Command(filepath.Join(bin, "optroute"),
			"-synth", "7x10x4", "-seed", "3", "-nets", "4", "-rule", "all",
			"-quiet", "-trace", tracePath, "-flight", "-timeout", "10s")
		interruptWhenTracing(t, cmd, tracePath)
		assertParseableTrace(t, tracePath)
	})
}

// assertParseableTrace requires the file to exist and parse as JSONL with no
// duplicate span IDs. (Spans still open at cancellation are legitimately
// absent; full nesting checks belong to the uninterrupted golden test.)
func assertParseableTrace(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("trace not written: %v", err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("interrupted trace does not parse: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("interrupted trace is empty — the interrupt landed before any solve")
	}
	seen := map[int64]bool{}
	for _, r := range recs {
		if !r.Event && seen[r.ID] {
			t.Fatalf("duplicate span id %d", r.ID)
		}
		if !r.Event {
			seen[r.ID] = true
		}
	}
	t.Logf("interrupted trace: %d records", len(recs))
}
