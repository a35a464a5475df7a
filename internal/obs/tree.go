// Trace reconstruction: the read side of the JSONL span traces the Tracer
// writes. BuildTree turns a flat record list back into the span hierarchy
// (records are emitted at span End, so parents appear after their children —
// resolution is order-independent), and ValidateTrace checks the structural
// invariants every well-formed trace must satisfy: unique IDs, resolvable
// parents, children nested within their parents' time ranges, and phase
// breakdowns that account for their span's duration.
package obs

import (
	"fmt"
	"math"
	"sort"
)

// TraceNode is one span (or event) of a reconstructed trace tree.
type TraceNode struct {
	SpanRecord
	Children []*TraceNode
}

// EndUS returns the span's end offset from the trace epoch.
func (n *TraceNode) EndUS() int64 { return n.StartUS + n.DurUS }

// SelfUS returns the span's wall time not covered by child spans (events are
// zero-duration and contribute nothing). Negative self time from microsecond
// truncation clamps to zero.
func (n *TraceNode) SelfUS() int64 {
	self := n.DurUS
	for _, c := range n.Children {
		self -= c.DurUS
	}
	if self < 0 {
		self = 0
	}
	return self
}

// Attr returns the named span attribute (nil when absent).
func (n *TraceNode) Attr(key string) interface{} {
	if n.Attrs == nil {
		return nil
	}
	return n.Attrs[key]
}

// AttrString returns the named attribute as a string ("" when absent or not
// a string).
func (n *TraceNode) AttrString(key string) string {
	s, _ := n.Attr(key).(string)
	return s
}

// AttrFloat returns the named attribute as a float64. JSON unmarshals every
// number to float64, so this covers the solvers' numeric attrs; ok reports
// presence.
func (n *TraceNode) AttrFloat(key string) (float64, bool) {
	v, ok := n.Attr(key).(float64)
	return v, ok
}

// TraceTree is a reconstructed span forest: one root per top-level span or
// event, children sorted by start time.
type TraceTree struct {
	Roots []*TraceNode
	ByID  map[int64]*TraceNode
	// Spans and Events count the record kinds (Spans+Events == total records).
	Spans, Events int
}

// Walk visits every node of the tree depth-first in start order.
func (t *TraceTree) Walk(fn func(*TraceNode)) {
	var rec func(n *TraceNode)
	rec = func(n *TraceNode) {
		fn(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	for _, r := range t.Roots {
		rec(r)
	}
}

// BuildTree reconstructs the span hierarchy from a flat record list. It fails
// on duplicate IDs and unresolved parent references — a trace that parses but
// cannot be reassembled is corrupt, not merely incomplete.
func BuildTree(recs []SpanRecord) (*TraceTree, error) {
	t := &TraceTree{ByID: make(map[int64]*TraceNode, len(recs))}
	nodes := make([]TraceNode, len(recs))
	for i, r := range recs {
		if _, dup := t.ByID[r.ID]; dup {
			return nil, fmt.Errorf("obs: duplicate span id %d", r.ID)
		}
		nodes[i] = TraceNode{SpanRecord: r}
		t.ByID[r.ID] = &nodes[i]
		if r.Event {
			t.Events++
		} else {
			t.Spans++
		}
	}
	for i := range nodes {
		n := &nodes[i]
		if n.Parent == 0 {
			t.Roots = append(t.Roots, n)
			continue
		}
		p, ok := t.ByID[n.Parent]
		if !ok {
			return nil, fmt.Errorf("obs: span %d (%s) references unknown parent %d",
				n.ID, n.Name, n.Parent)
		}
		p.Children = append(p.Children, n)
	}
	byStart := func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].StartUS < ns[j].StartUS })
	}
	byStart(t.Roots)
	for i := range nodes {
		byStart(nodes[i].Children)
	}
	return t, nil
}

// nestTolUS absorbs the microsecond truncation of StartUS/DurUS: a child's
// reconstructed end can overhang its parent's by a few microseconds even
// though the underlying time.Time ranges nest exactly.
const nestTolUS = 10

// phaseSum totals a phases_ms attribute (as stamped in memory or decoded
// from JSON); ok is false when v is not a phase map.
func phaseSum(v interface{}) (sum float64, ok bool) {
	switch m := v.(type) {
	case map[string]float64:
		for _, ms := range m {
			sum += ms
		}
		return sum, true
	case map[string]interface{}:
		for _, ms := range m {
			if f, isNum := ms.(float64); isNum {
				sum += f
			}
		}
		return sum, true
	}
	return 0, false
}

// ValidateTrace checks a record list for structural well-formedness and
// returns a description of every violation found (empty = well-formed):
// duplicate IDs, parent references that do not resolve, spans that start
// before or end after their parent, events outside their parent's time
// range, and spans whose phases_ms breakdown misses their duration by more
// than 10% + 2ms (a solver's phases partition its wall time). It is the
// check behind `traceview -validate`.
func ValidateTrace(recs []SpanRecord) []string {
	var problems []string
	tree, err := BuildTree(recs)
	if err != nil {
		return []string{err.Error()}
	}
	tree.Walk(func(n *TraceNode) {
		if n.DurUS < 0 {
			problems = append(problems, fmt.Sprintf(
				"span %d (%s): negative duration %dus", n.ID, n.Name, n.DurUS))
		}
		if sum, ok := phaseSum(n.Attr("phases_ms")); ok && !n.Event {
			dur := float64(n.DurUS) / 1000
			if math.Abs(sum-dur) > dur/10+2 {
				problems = append(problems, fmt.Sprintf(
					"span %d (%s): phases_ms sums to %.3fms, duration %.3fms",
					n.ID, n.Name, sum, dur))
			}
		}
		for _, c := range n.Children {
			if c.StartUS+nestTolUS < n.StartUS {
				problems = append(problems, fmt.Sprintf(
					"span %d (%s) starts %dus before its parent %d (%s)",
					c.ID, c.Name, n.StartUS-c.StartUS, n.ID, n.Name))
			}
			if c.EndUS() > n.EndUS()+nestTolUS {
				problems = append(problems, fmt.Sprintf(
					"span %d (%s) ends %dus after its parent %d (%s)",
					c.ID, c.Name, c.EndUS()-n.EndUS(), n.ID, n.Name))
			}
		}
	})
	return problems
}
