package optrouter

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds every command and exercises the documented flows:
// rules table, clip extraction to JSON, optimal routing of an extracted
// clip, and the local-improvement assessment.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./cmd/...")
	build.Dir = "."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Table 3 via beoleval.
	if out := run("beoleval", "-rules"); !strings.Contains(out, "RULE11") {
		t.Fatalf("beoleval -rules missing RULE11:\n%s", out)
	}

	// Clip extraction to JSON.
	clips := t.TempDir()
	out := run("clipextract", "-design", "M0", "-size", "150", "-top", "3", "-out", clips)
	if !strings.Contains(out, "extracted") {
		t.Fatalf("clipextract output:\n%s", out)
	}
	entries, err := os.ReadDir(clips)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no clips written: %v", err)
	}

	// Route the first extracted clip optimally under RULE6.
	clipPath := filepath.Join(clips, entries[0].Name())
	out = run("optroute", "-clip", clipPath, "-rule", "RULE6", "-render")
	if !strings.Contains(out, "optimal") {
		t.Fatalf("optroute did not prove optimality:\n%s", out)
	}
	if !strings.Contains(out, "M2") {
		t.Fatalf("optroute -render missing layers:\n%s", out)
	}

	// Local improvement assessment.
	out = run("improve", "-size", "120", "-windows", "3", "-timeout", "5s")
	if !strings.Contains(out, "windows:") {
		t.Fatalf("improve output:\n%s", out)
	}
}
