package obs

import (
	"testing"
	"time"
)

func TestPhaseClockPartition(t *testing.T) {
	c := NewPhaseClock()
	start := time.Now()
	c.Enter("setup")
	time.Sleep(2 * time.Millisecond)
	c.Enter("search")
	time.Sleep(2 * time.Millisecond)
	c.Enter("setup") // re-entering accumulates into the existing phase
	time.Sleep(2 * time.Millisecond)
	c.Stop()
	wall := time.Since(start)

	b := c.Breakdown()
	if len(b) != 2 {
		t.Fatalf("breakdown = %v, want 2 phases", b)
	}
	if b["setup"] <= b["search"] {
		t.Errorf("setup %v should exceed search %v (entered twice)", b["setup"], b["search"])
	}
	// The clock never pauses, so the breakdown partitions wall time exactly
	// (up to the time spent outside Enter..Stop in this test body).
	if total := b.Total(); total > wall || wall-total > 5*time.Millisecond {
		t.Errorf("total %v vs wall %v: breakdown must partition the clock's lifetime", total, wall)
	}
}

// TestPhaseClockApportion: the coordinator's interval is credited to the
// phases its part clocks recorded, in proportion, never to the coordinator's
// open phase, and the parts are drained.
func TestPhaseClockApportion(t *testing.T) {
	c := NewPhaseClock()
	start := time.Now()
	c.Enter("wait")
	w1, w2 := NewPhaseClock(), NewPhaseClock()
	w1.Enter("steiner")
	time.Sleep(2 * time.Millisecond)
	w1.Enter("drc")
	time.Sleep(2 * time.Millisecond)
	w1.Stop()
	w2.Enter("steiner")
	time.Sleep(2 * time.Millisecond)
	w2.Stop()
	c.Apportion("search", w1, w2)
	c.Stop()
	wall := time.Since(start)

	b := c.Breakdown()
	if b["wait"] != 0 {
		t.Errorf("open phase kept %v of the apportioned interval", b["wait"])
	}
	if b["steiner"] <= b["drc"] || b["drc"] <= 0 {
		t.Errorf("steiner %v should exceed drc %v > 0 (twice the part time)", b["steiner"], b["drc"])
	}
	if total := b.Total(); total > wall || wall-total > 5*time.Millisecond {
		t.Errorf("total %v vs wall %v: apportioning must keep the partition", total, wall)
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
