// HTTP surface of the observability stack: a Prometheus text-exposition
// renderer over Registry snapshots (/metrics) and a live sweep status
// tracker (/statusz) with per-worker in-flight solves, done/total counts and
// an ETA. Both are mounted by the CLIs on the -pprof mux, so one address
// serves profiles, metrics and status.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// sanitizeMetricName maps an internal metric name onto the Prometheus
// metric-name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			c = '_'
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

// formatFloat renders a sample value the way Prometheus expects (shortest
// round-trip decimal; +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples, histograms
// as cumulative le-bucketed series plus _sum and _count. Families are
// emitted in sorted name order so the output is deterministic.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := sanitizeMetricName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[k]); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := sanitizeMetricName(k)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", n, n, formatFloat(s.Gauges[k])); err != nil {
			return err
		}
	}

	names = names[:0]
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := sanitizeMetricName(k)
		h := s.Histograms[k]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", n); err != nil {
			return err
		}
		// Internal buckets are per-interval counts; Prometheus buckets are
		// cumulative over ascending upper bounds.
		cum := int64(0)
		for i, bound := range h.Bounds {
			if i < len(h.Buckets) {
				cum += h.Buckets[i]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", n, formatFloat(h.Sum), n, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// RuntimeStats is a point-in-time sample of the Go runtime: scheduler and
// heap pressure of the solver process itself. It backs the go_* families on
// /metrics and the runtime block on /statusz.
type RuntimeStats struct {
	Goroutines  int     `json:"goroutines"`
	HeapInuseMB float64 `json:"heap_inuse_mb"`
	GCPauseMS   float64 `json:"gc_pause_ms"` // cumulative stop-the-world pause
	NumGC       int64   `json:"num_gc"`      // completed GC cycles
}

// ReadRuntimeStats samples the runtime now. ReadMemStats stops the world
// briefly, so callers poll it per scrape, not per solve node.
func ReadRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return RuntimeStats{
		Goroutines:  runtime.NumGoroutine(),
		HeapInuseMB: float64(ms.HeapInuse) / (1 << 20),
		GCPauseMS:   float64(ms.PauseTotalNs) / 1e6,
		NumGC:       int64(ms.NumGC),
	}
}

// WritePrometheus renders the runtime sample in Prometheus text exposition.
func (rs RuntimeStats) WritePrometheus(w io.Writer) error {
	_, err := fmt.Fprintf(w,
		"# TYPE go_goroutines gauge\ngo_goroutines %d\n"+
			"# TYPE go_heap_inuse_mb gauge\ngo_heap_inuse_mb %s\n"+
			"# TYPE go_gc_pause_total_ms counter\ngo_gc_pause_total_ms %s\n"+
			"# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n",
		rs.Goroutines, formatFloat(rs.HeapInuseMB), formatFloat(rs.GCPauseMS), rs.NumGC)
	return err
}

// MetricsHandler serves the registry as Prometheus text exposition, followed
// by the go_* runtime families. The snapshot is taken per request, so long
// sweeps can be scraped live.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := ReadRuntimeStats().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Status tracks the live state of a sweep for /statusz: which solve each
// worker is executing right now, how many are done of how many total, and a
// naive rate-based ETA. The CLIs feed it from their progress callbacks; all
// methods are concurrency-safe and nil-safe.
type Status struct {
	mu       sync.Mutex
	start    time.Time
	label    string
	total    int
	done     int
	failed   int
	inflight map[int]inflightJob
	calib    *CalibStatus
	sampler  *Sampler
}

// CalibStatus is the calibration evidence surfaced on /statusz: the machine
// score and per-probe ns/op measured when the process started working.
type CalibStatus struct {
	ScoreNs  float64            `json:"score_ns"`
	ProbesNs map[string]float64 `json:"probes_ns,omitempty"`
}

type inflightJob struct {
	name  string
	since time.Time
}

// NewStatus returns an empty Status; its uptime clock starts now.
func NewStatus() *Status {
	return &Status{start: time.Now(), inflight: map[int]inflightJob{}}
}

// SetLabel names the current activity (e.g. "fig10 N28-12T").
func (s *Status) SetLabel(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.label = label
}

// SetTotal records the sweep's job total.
func (s *Status) SetTotal(total int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.total = total
}

// SetCalibration records the process's machine-calibration result for
// /statusz (and lets operators compare a live process against the committed
// bench documents' calibration blocks).
func (s *Status) SetCalibration(scoreNs float64, probesNs map[string]float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calib = &CalibStatus{ScoreNs: scoreNs, ProbesNs: probesNs}
}

// SetSampler attaches the process's sampling profiler so /statusz reports
// its rate and live sample count.
func (s *Status) SetSampler(sp *Sampler) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sampler = sp
}

// JobStart records that worker began executing the named job.
func (s *Status) JobStart(worker int, name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight[worker] = inflightJob{name: name, since: time.Now()}
}

// JobDone records that worker finished its job (failed counts separately).
func (s *Status) JobDone(worker int, failed bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, worker)
	s.done++
	if failed {
		s.failed++
	}
}

// InFlightJob is one worker's current solve in a StatusSnapshot.
type InFlightJob struct {
	Worker    int    `json:"worker"`
	Name      string `json:"name"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// StatusSnapshot is the JSON document served at /statusz.
type StatusSnapshot struct {
	Label    string        `json:"label,omitempty"`
	UptimeMS int64         `json:"uptime_ms"`
	Total    int           `json:"total"`
	Done     int           `json:"done"`
	Failed   int           `json:"failed"`
	InFlight []InFlightJob `json:"in_flight"`
	// ETAMS is the projected remaining wall time from the mean completed-job
	// rate; -1 before the first completion (or without a known total).
	ETAMS int64 `json:"eta_ms"`
	// Runtime is sampled at snapshot time by StatusHandler; zero when the
	// snapshot was taken directly (tests, nil Status).
	Runtime RuntimeStats `json:"runtime"`
	// Calibration is the machine-calibration result recorded via
	// SetCalibration; nil when the process did not calibrate.
	Calibration *CalibStatus `json:"calibration,omitempty"`
	// Sampler reports the sampling profiler's state; nil when off.
	Sampler *SamplerStatus `json:"sampler,omitempty"`
}

// SamplerStatus is the sampling profiler's live state on /statusz.
type SamplerStatus struct {
	Hz      int   `json:"hz"`
	Samples int64 `json:"samples"`
}

// Snapshot captures the current sweep state. Safe on nil (zero snapshot).
func (s *Status) Snapshot() StatusSnapshot {
	if s == nil {
		return StatusSnapshot{ETAMS: -1, InFlight: []InFlightJob{}}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	snap := StatusSnapshot{
		Label:    s.label,
		UptimeMS: now.Sub(s.start).Milliseconds(),
		Total:    s.total,
		Done:     s.done,
		Failed:   s.failed,
		InFlight: make([]InFlightJob, 0, len(s.inflight)),
		ETAMS:    -1,
	}
	if s.calib != nil {
		c := *s.calib
		snap.Calibration = &c
	}
	if s.sampler != nil {
		snap.Sampler = &SamplerStatus{Hz: s.sampler.Hz(), Samples: s.sampler.Samples()}
	}
	for w, j := range s.inflight {
		snap.InFlight = append(snap.InFlight, InFlightJob{
			Worker: w, Name: j.name, ElapsedMS: now.Sub(j.since).Milliseconds(),
		})
	}
	sort.Slice(snap.InFlight, func(i, j int) bool {
		return snap.InFlight[i].Worker < snap.InFlight[j].Worker
	})
	if s.done > 0 && s.total >= s.done {
		per := now.Sub(s.start) / time.Duration(s.done)
		snap.ETAMS = (per * time.Duration(s.total-s.done)).Milliseconds()
	}
	return snap
}

// StatusHandler serves the Status as indented JSON at /statusz.
func StatusHandler(s *Status) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		snap := s.Snapshot()
		snap.Runtime = ReadRuntimeStats()
		if err := enc.Encode(snap); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
