package lp

import (
	"encoding/json"
	"fmt"
	"slices"
)

// Counter names one of the LP engine's informational telemetry counters:
// events worth seeing in a trace or a bench document that are not part of
// the deterministic work vector. Every layer above (ilp, core, report, the
// CLIs) carries them as one Counters value and renders them by name, so a
// new counter is one constant here and one entry in counterNames.
type Counter int

// The counters, in rendering order.
const (
	CandidateHits  Counter = iota // pricing rounds served by the candidate list alone
	RefResets                     // devex reference-framework resets
	DualBoundFlips                // long-step dual ratio-test bound flips (BFRT)
	PresolveRows                  // rows removed by the MILP root presolve
	PresolveCols                  // columns removed by the MILP root presolve
	// Refactorization triggers beyond the initial factorization. They
	// partition the recovery paths of the update layer; initial and
	// structural factorizations carry no trigger.
	RefactorEtaLen         // update-count budget exhausted
	RefactorFill           // update-storage fill budget exhausted
	RefactorPivotQuality   // tiny pivot hit mid-iteration
	RefactorUpdateRejected // FT update rejected on spike-pivot quality
	NumCounters
)

// counterNames are the canonical names: the keys of a bench document's lp
// block and, prefixed with "lp_", the ilp.solve span attrs.
var counterNames = [NumCounters]string{
	"candidate_hits", "ref_resets", "dual_bound_flips",
	"presolve_rows", "presolve_cols",
	"refactor_eta_len", "refactor_fill",
	"refactor_pivot_quality", "refactor_update_rejected",
}

// String returns the counter's canonical name.
func (c Counter) String() string { return counterNames[c] }

// Counters holds one value per Counter.
type Counters [NumCounters]int

// Add folds o into c.
func (c *Counters) Add(o Counters) {
	for i, v := range o {
		c[i] += v
	}
}

// EachNonzero calls f for every nonzero counter, in declaration order.
func (c *Counters) EachNonzero(f func(k Counter, v int)) {
	for k, v := range c {
		if v != 0 {
			f(Counter(k), v)
		}
	}
}

// String renders the nonzero counters as "name=value" pairs.
func (c Counters) String() string {
	var b []byte
	c.EachNonzero(func(k Counter, v int) {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = fmt.Appendf(b, "%s=%d", k, v)
	})
	return string(b)
}

// IsZero reports whether every counter is zero.
func (c *Counters) IsZero() bool { return *c == Counters{} }

// MarshalJSON writes the nonzero counters as an object keyed by name, in
// declaration order.
func (c Counters) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	c.EachNonzero(func(k Counter, v int) {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%q:%d", k, v)
	})
	return append(b, '}'), nil
}

// UnmarshalJSON reads an object keyed by counter name; an absent counter is
// zero, and an unknown or negative one is an error.
func (c *Counters) UnmarshalJSON(b []byte) error {
	var m map[string]int
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*c = Counters{}
	for name, v := range m {
		k := slices.Index(counterNames[:], name)
		if k < 0 {
			return fmt.Errorf("lp: unknown counter %q", name)
		}
		if v < 0 {
			return fmt.Errorf("lp: negative counter %s=%d", name, v)
		}
		c[k] = v
	}
	return nil
}
