// Flight recorder: a capping layer between the solvers' per-node search
// events and the Tracer, so multi-thousand-node solves produce bounded
// traces. The solvers emit one structured event per search node (open /
// branch / fathom / prune, with bounds, depth and the chosen branching
// variable); the Flight passes them to the trace up to maxFlightEvents per
// solve and counts the rest in an explicit dropped counter — truncation is
// always visible, never silent.
package obs

import "sync/atomic"

// maxFlightEvents caps the node events one solve records.
const maxFlightEvents = 100000

// FlightOptions configures per-node search-event recording. The zero value
// is disabled (no events, zero overhead beyond a nil check).
type FlightOptions struct {
	// Enabled turns per-node event recording on. Off by default: node events
	// cost one JSON record per search node, which full-corpus sweeps do not
	// want unless a trace is being collected for analysis.
	Enabled bool
}

// Flight is one solve's search-event recorder: events pass through the
// event cap before reaching the span's tracer. All methods are safe for
// concurrent use — the parallel tree search emits node events from every
// worker onto one Flight — and the accounting invariant seen == kept +
// dropped holds at every quiescent point (each event increments exactly one
// of kept/dropped). All methods are no-ops on a nil receiver, so
// instrumentation sites never guard — a disabled FlightOptions yields a nil
// *Flight.
type Flight struct {
	span    *Span
	seen    atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64
}

// NewFlight returns a recorder emitting events under span, or nil when
// recording is disabled or there is no span to attach to.
func NewFlight(span *Span, opt FlightOptions) *Flight {
	if !opt.Enabled || span == nil {
		return nil
	}
	return &Flight{span: span}
}

// Event records one search event, subject to the event cap. It reports
// whether the event reached the trace, so callers can skip building
// expensive attributes for dropped events. Safe for concurrent use: the cap
// reservation rolls back (into dropped) on overshoot, so each event lands in
// exactly one of kept/dropped.
func (f *Flight) Event(name string, attrs ...Attr) bool {
	if f == nil {
		return false
	}
	f.seen.Add(1)
	// Reserve a kept slot; on overshoot give it back and drop instead.
	if f.kept.Add(1) > maxFlightEvents {
		f.kept.Add(-1)
		f.dropped.Add(1)
		return false
	}
	f.span.Event(name, attrs...)
	return true
}

// Seen returns how many events were offered to the recorder.
func (f *Flight) Seen() int64 {
	if f == nil {
		return 0
	}
	return f.seen.Load()
}

// Kept returns how many offered events reached the trace.
func (f *Flight) Kept() int64 {
	if f == nil {
		return 0
	}
	return f.kept.Load()
}

// Dropped returns how many offered events did not reach the trace.
func (f *Flight) Dropped() int64 {
	if f == nil {
		return 0
	}
	return f.dropped.Load()
}

// Finish stamps the recorder's accounting onto the solve span, making
// truncation visible to trace consumers: flight_seen / flight_kept /
// flight_dropped. Call it just before ending the span, after every emitting
// goroutine has stopped.
func (f *Flight) Finish() {
	if f == nil {
		return
	}
	f.span.SetAttr("flight_seen", f.seen.Load())
	f.span.SetAttr("flight_kept", f.kept.Load())
	f.span.SetAttr("flight_dropped", f.dropped.Load())
}
