package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"optrouter/internal/obs"
)

// recorder keeps the spans of one traced iteration in memory, in the JSONL
// record format of package obs, so `traceview -validate` reads the file it
// writes. Spans are recorded only from the benchmark's own code, around its
// calls into the layers; a nil *recorder records nothing, which is how the
// untraced iterations run.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	runID string
	next  int64
	recs  []obs.SpanRecord
}

func newRecorder(runID string) *recorder {
	return &recorder{epoch: time.Now(), runID: runID}
}

// span is an open span; end records it.
type span struct {
	r      *recorder
	id     int64
	parent int64
	name   string
	start  time.Time
	attrs  map[string]interface{}
}

// start opens a span named "<layer>.<Func>" under parent (nil = root).
func (r *recorder) start(parent *span, name string) *span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	s := &span{r: r, id: id, name: name, start: time.Now(), attrs: map[string]interface{}{"run": r.runID}}
	if parent != nil {
		s.parent = parent.id
	}
	return s
}

// set attaches an attribute; nil-safe.
func (s *span) set(key string, val interface{}) {
	if s != nil {
		s.attrs[key] = val
	}
}

// end records the span as ending now.
func (s *span) end() { s.endAt(time.Now()) }

func (s *span) endAt(t time.Time) {
	if s == nil {
		return
	}
	s.r.add(obs.SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartUS: s.start.Sub(s.r.epoch).Microseconds(),
		DurUS:   t.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
	})
}

// interval records a span whose bounds were observed after the fact, such
// as the graph build that sits between two solve events of one worker.
func (r *recorder) interval(parent *span, name string, from, to time.Time, attrs map[string]interface{}) {
	if r == nil {
		return
	}
	s := r.start(parent, name)
	s.start = from
	for k, v := range attrs {
		s.attrs[k] = v
	}
	s.endAt(to)
}

func (r *recorder) add(rec obs.SpanRecord) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}

// write stores the spans as JSONL at path, then reads the file back and
// runs the trace validator behind `traceview -validate` on it.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range r.recs {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		return err
	}
	if problems := obs.ValidateTrace(recs); len(problems) > 0 {
		return fmt.Errorf("trace %s fails validation: %s", path, strings.Join(problems, "; "))
	}
	return nil
}

// selfTimes returns each layer's self time in milliseconds: a span's
// duration minus the part of it covered by its children, summed over the
// spans of the layer (the name up to the first dot). The root span's self
// time is returned under "" — time no layer accounts for.
func (r *recorder) selfTimes() map[string]float64 {
	kids := map[int64][]obs.SpanRecord{}
	for _, rec := range r.recs {
		if rec.Parent != 0 {
			kids[rec.Parent] = append(kids[rec.Parent], rec)
		}
	}
	out := map[string]float64{}
	for _, rec := range r.recs {
		self := rec.DurUS - covered(rec, kids[rec.ID])
		layer := ""
		if rec.Parent != 0 {
			layer, _, _ = strings.Cut(rec.Name, ".")
		}
		out[layer] += float64(self) / 1000
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	lo, hi := parent.StartUS, parent.StartUS+parent.DurUS
	for _, k := range kids {
		a, b := max(k.StartUS, lo), min(k.StartUS+k.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// solveTracker turns a study's serialized Progress start/done events into
// per-solve spans and, between two solves of one worker, derived
// "rgraph.Build" spans (the study builds the rule's routing graph there).
// It also keeps the per-worker timeline the sched metrics come from.
type solveTracker struct {
	rec      *recorder
	parent   *span
	from     time.Time
	nclips   int
	last     map[int]time.Time // worker -> time of its last event
	starts   map[int]time.Time // solve index -> start time
	jobStart map[int]time.Time // clip index -> start of its first graph build
	solveMS  []float64
	gaps     int
}

func newSolveTracker(rec *recorder, parent *span, nclips int) *solveTracker {
	return &solveTracker{
		rec: rec, parent: parent, from: time.Now(), nclips: nclips,
		last: map[int]time.Time{}, starts: map[int]time.Time{}, jobStart: map[int]time.Time{},
	}
}

// event handles one exp.ClipProgress; the study never calls it concurrently.
func (t *solveTracker) event(phase, clipName, rule string, index, worker, nodes int, proven bool, phases obs.Breakdown) {
	now := time.Now()
	switch phase {
	case "start":
		prev, ok := t.last[worker]
		if !ok {
			prev = t.from
		}
		ci := (index - 1) % t.nclips
		if _, seen := t.jobStart[ci]; !seen {
			t.jobStart[ci] = prev
		}
		t.rec.interval(t.parent, "rgraph.Build", prev, now, map[string]interface{}{
			"worker": worker, "clip": clipName, "rule": rule, "derived": "gap before the solve's start event",
		})
		t.gaps++
		t.starts[index] = now
		t.last[worker] = now
	case "done":
		st := t.starts[index]
		t.rec.interval(t.parent, "core.SolveBnB", st, now, map[string]interface{}{
			"worker": worker, "clip": clipName, "rule": rule, "nodes": nodes, "proven": proven,
			"program_phases_ms": phases.MS(),
		})
		t.solveMS = append(t.solveMS, msBetween(st, now))
		t.last[worker] = now
	}
}

// schedMetrics derives the worker-pool figures from the timeline, given the
// study's end time and worker count: the busy share of worker time, the
// summed queue wait of the clip jobs, and the tail from the first worker
// going idle to the end of the study.
func (t *solveTracker) schedMetrics(end time.Time, workers int) (busyFrac, waitMS, tailMS float64) {
	wall := msBetween(t.from, end)
	firstIdle := end
	busy := 0.0
	for _, last := range t.last {
		busy += msBetween(t.from, last)
		if last.Before(firstIdle) {
			firstIdle = last
		}
	}
	if len(t.last) < workers {
		firstIdle = t.from // a worker never got a job
	}
	for _, js := range t.jobStart {
		waitMS += msBetween(t.from, js)
	}
	if wall > 0 {
		busyFrac = busy / (wall * float64(workers))
	}
	return busyFrac, waitMS, msBetween(firstIdle, end)
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Microseconds()) / 1000 }
