package exp

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optrouter/internal/obs"
)

func openSession(t *testing.T, args ...string) (*Session, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := BindFlags(fs, "test", 30*time.Second)
	s.BindObservability(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, s.Open(false)
}

func TestSessionFlightNeedsTrace(t *testing.T) {
	if flag.Lookup("trace") != nil || flag.Lookup("timeout") != nil {
		t.Fatal("session flags registered on the command line at package init")
	}
	s, err := openSession(t, "-flight")
	if err == nil || !strings.Contains(err.Error(), "-flight needs -trace") {
		t.Fatalf("Open(-flight) = %v, want the -flight needs -trace error", err)
	}
	if s.Solve.Tracer != nil {
		t.Fatal("a tracer was opened although the flags were rejected")
	}
}

func TestSessionTraceFlight(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	s, err := openSession(t, "-trace", path, "-flight", "-timeout", "2s", "-j", "1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve.Tracer == nil || !s.Solve.Flight.Enabled {
		t.Fatalf("tracer %v, flight %+v: want a tracer with flight recording on", s.Solve.Tracer, s.Solve.Flight)
	}
	if s.Solve.PerClipTimeout != 2*time.Second || s.Solve.Workers != 1 {
		t.Fatalf("timeout %v, workers %d: want 2s and 1", s.Solve.PerClipTimeout, s.Solve.Workers)
	}
	span := s.Solve.Tracer.Start("solve")
	fl := obs.NewFlight(span, s.Solve.Flight)
	fl.Event("node", obs.A("depth", 0))
	fl.Finish()
	span.End()
	s.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatalf("trace does not parse after Close: %v", err)
	}
	if len(recs) < 2 {
		t.Fatalf("trace has %d records, want the span and its node event", len(recs))
	}
	if probs := obs.ValidateTrace(recs); len(probs) > 0 {
		t.Fatalf("trace not well-formed: %v", probs)
	}
}
