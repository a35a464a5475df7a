package obs

import (
	"sort"
	"time"
)

// Breakdown maps phase names to accumulated wall time. It is the export
// format of a PhaseClock and the per-solve phase-attribution record carried
// by the solver Stats structs (lp, ilp, core).
type Breakdown map[string]time.Duration

// Total sums all phases.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// Merge adds other's phases into b and returns b (allocating when b is nil),
// so per-solve breakdowns fold into a per-sweep aggregate.
func (b Breakdown) Merge(other Breakdown) Breakdown {
	if len(other) == 0 {
		return b
	}
	if b == nil {
		b = Breakdown{}
	}
	for k, d := range other {
		b[k] += d
	}
	return b
}

// MS renders the breakdown as milliseconds per phase (the JSON-friendly
// form used by cmd/benchrun and the metrics document).
func (b Breakdown) MS() map[string]float64 {
	if len(b) == 0 {
		return nil
	}
	out := make(map[string]float64, len(b))
	for k, d := range b {
		out[k] = float64(d.Microseconds()) / 1000
	}
	return out
}

// Names returns the phase names in sorted order (for deterministic output).
func (b Breakdown) Names() []string {
	names := make([]string, 0, len(b))
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// PhaseClock attributes contiguous wall time to named phases: at any moment
// exactly one phase is open, Enter closes the current phase and opens the
// next, and Stop closes the last one. Because the clock never pauses between
// Enter calls, the breakdown of a solve instrumented from start to Stop sums
// to the solve's wall time (the acceptance bound for phase attribution).
//
// The clock is intentionally single-goroutine (each solve owns one); all
// methods are no-ops on a nil receiver so instrumentation sites never guard.
type PhaseClock struct {
	names  []string
	totals []time.Duration
	idx    map[string]int
	cur    int // index of the open phase, -1 when stopped
	last   time.Time
}

// NewPhaseClock returns a stopped clock; the first Enter starts attribution.
func NewPhaseClock() *PhaseClock {
	return &PhaseClock{idx: map[string]int{}, cur: -1}
}

func (c *PhaseClock) phase(name string) int {
	i, ok := c.idx[name]
	if !ok {
		i = len(c.names)
		c.idx[name] = i
		c.names = append(c.names, name)
		c.totals = append(c.totals, 0)
	}
	return i
}

// Enter closes the open phase (attributing the elapsed time to it) and opens
// name. Entering the already-open phase is a cheap no-op timestamp refresh.
func (c *PhaseClock) Enter(name string) {
	if c == nil {
		return
	}
	now := time.Now()
	if c.cur >= 0 {
		c.totals[c.cur] += now.Sub(c.last)
	}
	c.cur = c.phase(name)
	c.last = now
}

// Swap is Enter returning the previously open phase name (empty when the
// clock was stopped), so nested regions — a Steiner solve inside a strong-
// branching lookahead — can restore their caller's phase on exit.
func (c *PhaseClock) Swap(name string) string {
	if c == nil {
		return ""
	}
	prev := ""
	if c.cur >= 0 {
		prev = c.names[c.cur]
	}
	c.Enter(name)
	return prev
}

// Stop closes the open phase without opening another.
func (c *PhaseClock) Stop() {
	if c == nil || c.cur < 0 {
		return
	}
	c.totals[c.cur] += time.Since(c.last)
	c.cur = -1
}

// Apportion closes the open phase's running interval without crediting it
// to that phase: the interval is split over the phases the part clocks have
// accumulated, in proportion to their totals (it falls back to the open
// phase when the parts hold no time). The parts are zeroed and next is
// opened. A coordinator whose workers run under clocks of their own calls it
// when the workers return, so its breakdown stays a partition of wall time
// while naming the phases the workers spent it in.
func (c *PhaseClock) Apportion(next string, parts ...*PhaseClock) {
	if c == nil {
		return
	}
	now := time.Now()
	var sum time.Duration
	for _, p := range parts {
		for _, t := range p.totals {
			sum += t
		}
	}
	if c.cur >= 0 {
		d := now.Sub(c.last)
		if sum <= 0 {
			c.totals[c.cur] += d
		} else {
			for _, p := range parts {
				for i, t := range p.totals {
					if t > 0 {
						c.totals[c.phase(p.names[i])] += time.Duration(float64(d) * float64(t) / float64(sum))
					}
				}
			}
		}
	}
	for _, p := range parts {
		clear(p.totals)
	}
	c.cur = c.phase(next)
	c.last = now
}

// Breakdown exports the accumulated per-phase totals. Phases with zero
// accumulated time are included (they were entered), so the phase set is
// stable across solves of different sizes.
func (c *PhaseClock) Breakdown() Breakdown {
	if c == nil || len(c.names) == 0 {
		return nil
	}
	out := make(Breakdown, len(c.names))
	for i, n := range c.names {
		out[n] = c.totals[i]
	}
	if c.cur >= 0 {
		out[c.names[c.cur]] += time.Since(c.last)
	}
	return out
}
