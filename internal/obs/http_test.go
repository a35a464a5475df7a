package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistrySnapshotConcurrent takes snapshots while writers are still
// hammering the registry; run under -race (ci.sh does) to prove Snapshot is
// safe against concurrent registration and observation.
func TestRegistrySnapshotConcurrent(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c%d", i%13)).Inc()
				r.Gauge(fmt.Sprintf("g%d", i%7)).Set(float64(i))
				r.Histogram(fmt.Sprintf("h%d", i%5)).Observe(float64(i % 100))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		for name, h := range snap.Histograms {
			var n int64
			for _, c := range h.Buckets {
				n += c
			}
			if n != h.Count {
				t.Errorf("snapshot %d: histogram %s inconsistent: buckets %d != count %d",
					i, name, n, h.Count)
			}
		}
	}
	close(stop)
	wg.Wait()
}

var (
	promTypeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (-?[0-9.eE+-]+|\+Inf|-Inf|NaN)$`)
)

// TestPrometheusExposition renders a populated snapshot and checks every line
// against the text-format grammar, plus the histogram invariants the format
// requires: cumulative monotone buckets, a +Inf bucket equal to _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("nodes").Add(42)
	r.Counter("solves-total").Inc() // '-' must be sanitized
	r.Gauge("gap").Set(0.125)
	h := r.Histogram("solve_ms", 1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	typed := map[string]string{}
	cum := map[string][]int64{}
	counts := map[string]int64{}
	sums := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if m := promTypeRe.FindStringSubmatch(line); m != nil {
			typed[m[1]] = m[2]
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line violates exposition grammar: %q", line)
		}
		name, label, val := m[1], m[2], m[3]
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			if typed[base] != "histogram" {
				t.Errorf("bucket sample %q without histogram TYPE line", line)
			}
			if label == "" {
				t.Errorf("bucket sample missing le label: %q", line)
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				t.Errorf("bucket value not an integer: %q", line)
			}
			cum[base] = append(cum[base], n)
		case strings.HasSuffix(name, "_sum"):
			sums[strings.TrimSuffix(name, "_sum")] = true
		case strings.HasSuffix(name, "_count"):
			n, _ := strconv.ParseInt(val, 10, 64)
			counts[strings.TrimSuffix(name, "_count")] = n
		default:
			if typed[name] == "" {
				t.Errorf("sample %q has no preceding TYPE line", line)
			}
			if label != "" {
				t.Errorf("non-histogram sample has a label: %q", line)
			}
		}
	}

	if typed["nodes"] != "counter" || typed["gap"] != "gauge" {
		t.Errorf("missing TYPE lines: %v", typed)
	}
	if _, ok := typed["solves_total"]; !ok {
		t.Errorf("metric name not sanitized: %v", typed)
	}
	buckets := cum["solve_ms"]
	if len(buckets) != 4 { // three bounds + +Inf
		t.Fatalf("solve_ms buckets = %v, want 4 entries", buckets)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Errorf("buckets not cumulative: %v", buckets)
		}
	}
	if buckets[len(buckets)-1] != counts["solve_ms"] {
		t.Errorf("+Inf bucket %d != count %d", buckets[len(buckets)-1], counts["solve_ms"])
	}
	if counts["solve_ms"] != 4 || !sums["solve_ms"] {
		t.Errorf("histogram _count/_sum missing: counts=%v sums=%v", counts, sums)
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("nodes").Add(7)
	srv := httptest.NewServer(MetricsHandler(r))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, _ := resp.Body.Read(buf)
	body := string(buf[:n])
	if !strings.Contains(body, "# TYPE nodes counter\nnodes 7\n") {
		t.Errorf("body missing counter sample:\n%s", body)
	}
	// The Go runtime families follow the registry families on every scrape.
	for _, fam := range []string{
		"# TYPE go_goroutines gauge\ngo_goroutines ",
		"# TYPE go_heap_inuse_mb gauge\ngo_heap_inuse_mb ",
		"# TYPE go_gc_pause_total_ms counter\ngo_gc_pause_total_ms ",
		"# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total ",
	} {
		if !strings.Contains(body, fam) {
			t.Errorf("body missing runtime family %q:\n%s", fam, body)
		}
	}

	// Scrapes must observe live updates.
	r.Counter("nodes").Add(3)
	resp2, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n, _ = resp2.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "nodes 10\n") {
		t.Errorf("second scrape missing updated value:\n%s", string(buf[:n]))
	}
}

func TestStatusHandler(t *testing.T) {
	s := NewStatus()
	s.SetLabel("fig10 N28-12T")
	s.SetTotal(10)
	s.JobStart(0, "RULE7 clip3")
	s.JobStart(1, "RULE8 clip5")
	s.JobDone(1, false)
	s.JobDone(2, true) // worker 2 finished a job we never saw start; still counted

	srv := httptest.NewServer(StatusHandler(s))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("statusz is not valid JSON: %v", err)
	}
	if snap.Label != "fig10 N28-12T" || snap.Total != 10 || snap.Done != 2 || snap.Failed != 1 {
		t.Errorf("snapshot = %+v", snap)
	}
	if len(snap.InFlight) != 1 || snap.InFlight[0].Worker != 0 || snap.InFlight[0].Name != "RULE7 clip3" {
		t.Errorf("in_flight = %+v, want worker 0's job", snap.InFlight)
	}
	if snap.ETAMS < 0 {
		t.Errorf("eta_ms = %d, want >= 0 after first completion", snap.ETAMS)
	}
	// The handler stamps a live runtime sample; a Go process always has at
	// least one goroutine and some heap in use.
	if snap.Runtime.Goroutines < 1 || snap.Runtime.HeapInuseMB <= 0 {
		t.Errorf("runtime sample = %+v, want live goroutine/heap values", snap.Runtime)
	}
}

func TestStatusSnapshotEdgeCases(t *testing.T) {
	var nilStatus *Status
	nilStatus.SetLabel("x")
	nilStatus.SetTotal(1)
	nilStatus.JobStart(0, "j")
	nilStatus.JobDone(0, false)
	snap := nilStatus.Snapshot()
	if snap.ETAMS != -1 || snap.InFlight == nil {
		t.Errorf("nil status snapshot = %+v", snap)
	}

	s := NewStatus()
	if got := s.Snapshot(); got.ETAMS != -1 {
		t.Errorf("eta before first completion = %d, want -1", got.ETAMS)
	}
	s.JobStart(3, "only")
	time.Sleep(time.Millisecond)
	if got := s.Snapshot(); len(got.InFlight) != 1 || got.InFlight[0].ElapsedMS < 0 {
		t.Errorf("in-flight elapsed = %+v", got.InFlight)
	}
}

// TestStatusLPBlock pins the /statusz LP block: absent (and AddLPStats a
// no-op) until EnableLP, then the cumulative counters under their JSON keys.
func TestStatusLPBlock(t *testing.T) {
	s := NewStatus()
	s.AddLPStats(LPStatDelta{CandidateHits: 5})
	if snap := s.Snapshot(); snap.LP != nil {
		t.Fatalf("LP block before EnableLP: %+v", snap.LP)
	}
	s.EnableLP()
	s.AddLPStats(LPStatDelta{CandidateHits: 3, RefResets: 1, RefactorEtaLen: 2})
	s.AddLPStats(LPStatDelta{CandidateHits: 4, DualBoundFlips: 6, PresolveRows: 7})
	s.EnableLP() // idempotent: keeps the accumulated counters
	data, err := json.Marshal(s.Snapshot().LP)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"candidate_hits":7,"ref_resets":1,"dual_bound_flips":6,"presolve_rows":7,` +
		`"presolve_cols":0,"refactor_eta_len":2,"refactor_fill":0,` +
		`"refactor_pivot_quality":0,"refactor_update_rejected":0}`
	if string(data) != want {
		t.Errorf("lp block = %s\nwant       %s", data, want)
	}
	var nilStatus *Status
	nilStatus.EnableLP()
}
