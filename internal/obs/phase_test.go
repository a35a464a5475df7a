package obs

import (
	"testing"
	"time"
)

func TestPhaseClockPartition(t *testing.T) {
	c := NewPhaseClock()
	before := time.Now()
	c.Enter("setup")
	in := time.Now()
	time.Sleep(2 * time.Millisecond)
	c.Enter("search")
	time.Sleep(2 * time.Millisecond)
	c.Enter("setup") // re-entering accumulates into the existing phase
	time.Sleep(2 * time.Millisecond)
	out := time.Now()
	c.Stop()
	after := time.Now()

	b := c.Breakdown()
	if len(b) != 2 {
		t.Fatalf("breakdown = %v, want 2 phases", b)
	}
	if b["setup"] <= b["search"] {
		t.Errorf("setup %v should exceed search %v (entered twice)", b["setup"], b["search"])
	}
	// The clock never pauses, so the breakdown is exactly its open interval,
	// which [in, out] lies inside and [before, after] contains.
	if total := b.Total(); total > after.Sub(before) || total < out.Sub(in) {
		t.Errorf("total %v outside [%v, %v]: breakdown must partition the clock's lifetime",
			total, out.Sub(in), after.Sub(before))
	}
}

// TestPhaseClockApportion: the coordinator's interval is credited to the
// phases its part clocks recorded, in proportion, never to the coordinator's
// open phase, and the parts are drained. The split is checked against the
// parts' own totals, not against how long the test slept.
func TestPhaseClockApportion(t *testing.T) {
	c := NewPhaseClock()
	before := time.Now()
	c.Enter("wait")
	in := time.Now()
	w1, w2 := NewPhaseClock(), NewPhaseClock()
	w1.Enter("steiner")
	time.Sleep(time.Millisecond)
	w1.Enter("drc")
	time.Sleep(time.Millisecond)
	w1.Stop()
	w2.Enter("steiner")
	time.Sleep(time.Millisecond)
	w2.Stop()
	// The parts are stopped, so these are the totals Apportion splits by.
	p1, p2 := w1.Breakdown(), w2.Breakdown()
	c.Apportion("search", w1, w2)
	out := time.Now()
	c.Stop()
	after := time.Now()

	b := c.Breakdown()
	if b["wait"] != 0 {
		t.Errorf("open phase kept %v of the apportioned interval", b["wait"])
	}
	parts := Breakdown{}.Merge(p1).Merge(p2)
	if (b["steiner"] > b["drc"]) != (parts["steiner"] > parts["drc"]) || b["drc"] <= 0 {
		t.Errorf("steiner %v vs drc %v > 0 must order as the parts' %v vs %v",
			b["steiner"], b["drc"], parts["steiner"], parts["drc"])
	}
	// Everything but the phase Apportion opened is the apportioned interval;
	// each part phase gets its share of it. Every (part, phase) term is
	// truncated to whole nanoseconds, hence the few-nanosecond tolerance.
	terms := time.Duration(len(p1) + len(p2))
	d := b.Total() - b["search"]
	for ph, pt := range parts {
		want := time.Duration(float64(d) * float64(pt) / float64(parts.Total()))
		if diff := b[ph] - want; diff < -terms || diff > terms {
			t.Errorf("%s got %v, want %v (its share %v of %v of %v)", ph, b[ph], want, pt, parts.Total(), d)
		}
	}
	if total := b.Total(); total > after.Sub(before) || total < out.Sub(in)-terms {
		t.Errorf("total %v outside [%v, %v]: apportioning must keep the partition",
			total, out.Sub(in), after.Sub(before))
	}
	if w1.Breakdown().Total() != 0 || w2.Breakdown().Total() != 0 {
		t.Errorf("parts not drained: %v %v", w1.Breakdown(), w2.Breakdown())
	}
}

func TestPhaseClockSwap(t *testing.T) {
	c := NewPhaseClock()
	if prev := c.Swap("outer"); prev != "" {
		t.Errorf("first Swap returned %q, want empty (clock was stopped)", prev)
	}
	if prev := c.Swap("inner"); prev != "outer" {
		t.Errorf("Swap returned %q, want outer", prev)
	}
	c.Enter("outer")
	c.Stop()
	b := c.Breakdown()
	if _, ok := b["inner"]; !ok {
		t.Errorf("breakdown %v missing swapped-in phase", b)
	}
}

func TestPhaseClockOpenPhaseVisible(t *testing.T) {
	c := NewPhaseClock()
	c.Enter("run")
	time.Sleep(time.Millisecond)
	// Breakdown without Stop must still attribute the open phase's time.
	if d := c.Breakdown()["run"]; d < 500*time.Microsecond {
		t.Errorf("open phase shows %v, want >= ~1ms", d)
	}
}

func TestPhaseClockNil(t *testing.T) {
	var c *PhaseClock
	c.Enter("x")
	if prev := c.Swap("y"); prev != "" {
		t.Errorf("nil Swap = %q", prev)
	}
	c.Stop()
	if b := c.Breakdown(); b != nil {
		t.Errorf("nil breakdown = %v", b)
	}
}

func TestBreakdownMerge(t *testing.T) {
	var agg Breakdown // nil: Merge must allocate
	agg = agg.Merge(Breakdown{"a": time.Second, "b": time.Second})
	agg = agg.Merge(Breakdown{"b": time.Second, "c": 3 * time.Second})
	agg = agg.Merge(nil)
	if agg["a"] != time.Second || agg["b"] != 2*time.Second || agg["c"] != 3*time.Second {
		t.Errorf("merged = %v", agg)
	}
	if agg.Total() != 6*time.Second {
		t.Errorf("total = %v, want 6s", agg.Total())
	}
	if names := agg.Names(); len(names) != 3 || names[0] != "a" || names[2] != "c" {
		t.Errorf("names = %v, want sorted [a b c]", names)
	}
	ms := Breakdown{"a": 1500 * time.Microsecond}.MS()
	if ms["a"] != 1.5 {
		t.Errorf("MS = %v, want a:1.5", ms)
	}
	if Breakdown(nil).MS() != nil {
		t.Errorf("nil breakdown MS should be nil")
	}
}
