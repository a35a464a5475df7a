package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestFlightDisabledIsNil(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	span := tr.Start("solve")
	if f := NewFlight(span, FlightOptions{}); f != nil {
		t.Fatalf("disabled FlightOptions must yield nil, got %+v", f)
	}
	var f *Flight
	if f.Event("node") {
		t.Error("nil Flight.Event must report not recorded")
	}
	f.Finish() // must not panic
	if f.Seen() != 0 || f.Dropped() != 0 {
		t.Errorf("nil Flight counters = %d/%d, want 0/0", f.Seen(), f.Dropped())
	}
}

// TestFlightCap: every event up to maxFlightEvents reaches the trace, and
// the ones beyond it are counted as dropped.
func TestFlightCap(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	span := tr.Start("solve")
	f := NewFlight(span, FlightOptions{Enabled: true})
	total, kept := maxFlightEvents+40, maxFlightEvents
	for i := 0; i < total; i++ {
		if got, want := f.Event("node", A("n", i)), i < kept; got != want {
			t.Fatalf("event %d: recorded=%v, want %v (cap %d)", i, got, want, kept)
		}
	}
	if f.Seen() != int64(total) {
		t.Errorf("seen = %d, want %d", f.Seen(), total)
	}
	if f.Dropped() != int64(total-kept) {
		t.Errorf("dropped = %d, want %d", f.Dropped(), total-kept)
	}
	f.Finish()
	span.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var solve *SpanRecord
	for i, r := range recs {
		if r.Event {
			events++
		}
		if r.Name == "solve" {
			solve = &recs[i]
		}
	}
	if events != kept {
		t.Errorf("trace has %d events, want %d", events, kept)
	}
	if solve == nil {
		t.Fatal("no solve span in trace")
	}
	if v, _ := solve.Attrs["flight_dropped"].(float64); int64(v) != f.Dropped() {
		t.Errorf("flight_dropped attr = %v, want %d", solve.Attrs["flight_dropped"], f.Dropped())
	}
}

// TestFlightConcurrentAccounting drives one Flight from many goroutines —
// the parallel tree search's emission pattern — and asserts the accounting
// invariant the solve-span attrs rest on: seen == kept + dropped, kept never
// exceeds the event cap, and the trace holds exactly kept events. Run under
// -race this is also the data-race gate for the recorder's hot path.
func TestFlightConcurrentAccounting(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	span := tr.Start("solve")
	const (
		goroutines = 16
		perG       = maxFlightEvents/goroutines + 100
	)
	f := NewFlight(span, FlightOptions{Enabled: true})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				f.Event("node", A("w", g), A("i", i))
			}
		}()
	}
	wg.Wait()

	total := int64(goroutines * perG)
	if f.Seen() != total {
		t.Errorf("seen = %d, want %d", f.Seen(), total)
	}
	if f.Seen() != f.Kept()+f.Dropped() {
		t.Errorf("accounting: seen %d != kept %d + dropped %d", f.Seen(), f.Kept(), f.Dropped())
	}
	if f.Kept() != maxFlightEvents {
		t.Errorf("kept %d, want the cap %d", f.Kept(), maxFlightEvents)
	}

	f.Finish()
	span.End()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var solve *SpanRecord
	for i, r := range recs {
		if r.Event {
			events++
		}
		if r.Name == "solve" {
			solve = &recs[i]
		}
	}
	if int64(events) != f.Kept() {
		t.Errorf("trace holds %d events, recorder kept %d", events, f.Kept())
	}
	if solve == nil {
		t.Fatal("no solve span in trace")
	}
	seen, _ := solve.Attrs["flight_seen"].(float64)
	kept, _ := solve.Attrs["flight_kept"].(float64)
	dropped, _ := solve.Attrs["flight_dropped"].(float64)
	if int64(seen) != int64(kept)+int64(dropped) {
		t.Errorf("span attrs: seen %v != kept %v + dropped %v", seen, kept, dropped)
	}
}
