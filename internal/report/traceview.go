package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"optrouter/internal/lp"
	"optrouter/internal/obs"
)

// This file is the analysis layer behind cmd/traceview: it turns a
// reconstructed span tree (obs.BuildTree over a -trace JSONL file) into
// per-solve summaries — phase attribution, search-tree statistics from the
// flight recorder's node events, bound-gap curves — plus pprof-style hot-span
// aggregation and a per-node CSV export for offline analysis.

// SolveTrace is one solver invocation found in a trace: the solve span, its
// phase attribution (the phases_ms attr both engines stamp), and the decoded
// flight-recorder node events beneath it.
type SolveTrace struct {
	Span   *obs.TraceNode
	Solver string // "bnb" or "ilp", from the span name
	Clip   string // clip attr ("" when the producer predates it)

	// Parallel-search attribution (zero on serial solves): Par is the
	// in-solve worker count, Steals the scheduler's work-steal count.
	Par    int
	Steals int64

	// LP engine telemetry from ilp solves (zero on bnb solves): total
	// simplex iterations and the lp.Counters read from the "lp_<name>"
	// attrs (a counter absent from older traces reads zero).
	LPIters int64
	LP      lp.Counters

	// PhasesMS is the solver's own wall-time attribution in milliseconds.
	PhasesMS map[string]float64

	// Events are the recorded node events in trace order (empty when the
	// flight recorder was off).
	Events []NodeEvent

	// Flight accounting from the solve span: how many node events the solve
	// offered, how many reached the trace, how many sampling dropped. Zero
	// when recording was off.
	FlightSeen, FlightKept, FlightDropped int64
}

// NodeEvent is one decoded flight-recorder record: a per-node feature vector
// of the search. Numeric fields are zero when absent; HasBound/HasIncumbent
// distinguish "no bound yet" from a zero bound.
type NodeEvent struct {
	N                      int    // nodes explored when the event fired
	Depth                  int    // node depth
	Act                    string // action: branch / fathom / solved / prune / infeasible / ...
	LB                     float64
	Bound, Incumbent       float64
	HasBound, HasIncumbent bool
	LPIters, Pivots, Etas  int    // per-node LP effort (ilp solves)
	Warm                   bool   // node LP warm-started from the parent basis
	Kind                   string // violation kind branched on (bnb solves)
	Kids                   int    // children pushed
	Worker                 int    // evaluating worker (parallel bnb; -1 serial)
	Var                    int    // branching variable (ilp solves; -1 none)
	Frac                   float64
	StartUS                int64 // offset from the trace epoch
}

// solveSpanNames are the span names the two exact engines open per solve.
var solveSpanNames = map[string]string{
	"bnb.solve": "bnb",
	"ilp.solve": "ilp",
}

// ExtractSolves finds every solver invocation in the tree, in start order.
func ExtractSolves(tree *obs.TraceTree) []SolveTrace {
	var out []SolveTrace
	tree.Walk(func(n *obs.TraceNode) {
		solver, ok := solveSpanNames[n.Name]
		if !ok || n.Event {
			return
		}
		st := SolveTrace{Span: n, Solver: solver, Clip: n.AttrString("clip")}
		if v, ok := n.AttrFloat("par"); ok {
			st.Par = int(v)
		}
		if v, ok := n.AttrFloat("steals"); ok {
			st.Steals = int64(v)
		}
		if v, ok := n.AttrFloat("lp_iters"); ok {
			st.LPIters = int64(v)
		}
		for k := range lp.NumCounters {
			if v, ok := n.AttrFloat("lp_" + k.String()); ok {
				st.LP[k] = int(v)
			}
		}
		if ph, ok := n.Attr("phases_ms").(map[string]interface{}); ok {
			st.PhasesMS = make(map[string]float64, len(ph))
			for k, v := range ph {
				if f, ok := v.(float64); ok {
					st.PhasesMS[k] = f
				}
			}
		}
		if v, ok := n.AttrFloat("flight_seen"); ok {
			st.FlightSeen = int64(v)
		}
		if v, ok := n.AttrFloat("flight_kept"); ok {
			st.FlightKept = int64(v)
		}
		if v, ok := n.AttrFloat("flight_dropped"); ok {
			st.FlightDropped = int64(v)
		}
		for _, c := range n.Children {
			if c.Event && c.Name == "node" {
				st.Events = append(st.Events, decodeNodeEvent(c))
			}
		}
		out = append(out, st)
	})
	return out
}

func decodeNodeEvent(n *obs.TraceNode) NodeEvent {
	ev := NodeEvent{Act: n.AttrString("act"), Kind: n.AttrString("kind"),
		Var: -1, Worker: -1, StartUS: n.StartUS}
	geti := func(key string) int {
		v, _ := n.AttrFloat(key)
		return int(v)
	}
	ev.N = geti("n")
	ev.Depth = geti("d")
	ev.LB, _ = n.AttrFloat("lb")
	ev.Bound, ev.HasBound = n.AttrFloat("bnd")
	ev.Incumbent, ev.HasIncumbent = n.AttrFloat("inc")
	ev.LPIters = geti("lp_iters")
	ev.Pivots = geti("pivots")
	ev.Etas = geti("etas")
	if w, ok := n.Attr("warm").(bool); ok {
		ev.Warm = w
	}
	ev.Kids = geti("kids")
	if v, ok := n.AttrFloat("w"); ok {
		ev.Worker = int(v)
	}
	if v, ok := n.AttrFloat("var"); ok {
		ev.Var = int(v)
	}
	ev.Frac, _ = n.AttrFloat("frac")
	return ev
}

// WallMS returns the solve span's duration in milliseconds.
func (s *SolveTrace) WallMS() float64 { return float64(s.Span.DurUS) / 1000 }

// DepthHistogram counts recorded node events per depth (index = depth).
func (s *SolveTrace) DepthHistogram() []int {
	var h []int
	for _, ev := range s.Events {
		for len(h) <= ev.Depth {
			h = append(h, 0)
		}
		h[ev.Depth]++
	}
	return h
}

// ActCounts tallies node events by action — the fathom/branch mix of the
// recorded search ("why did nodes die").
func (s *SolveTrace) ActCounts() map[string]int {
	m := map[string]int{}
	for _, ev := range s.Events {
		m[ev.Act]++
	}
	return m
}

// WorkerCounts tallies recorded node events per evaluating worker — the
// load-balance view of a parallel solve. Empty when no event carries a
// worker id (serial engine, or flight recording off).
func (s *SolveTrace) WorkerCounts() map[int]int {
	m := map[int]int{}
	for _, ev := range s.Events {
		if ev.Worker >= 0 {
			m[ev.Worker]++
		}
	}
	return m
}

// GapPoint is one sample of the bound-gap-vs-nodes curve.
type GapPoint struct {
	N     int
	Bound float64
	Inc   float64
}

// GapCurve returns the bound/incumbent pairs of events that carry both, in
// node order — the convergence curve of the recorded search.
func (s *SolveTrace) GapCurve() []GapPoint {
	var out []GapPoint
	for _, ev := range s.Events {
		if ev.HasBound && ev.HasIncumbent {
			out = append(out, GapPoint{N: ev.N, Bound: ev.Bound, Inc: ev.Incumbent})
		}
	}
	return out
}

// SpanAgg aggregates all spans sharing a name: invocation count, summed
// duration, and summed self time (duration minus child spans) — the
// pprof-style flat/cum pair.
type SpanAgg struct {
	Name    string
	Count   int
	TotalUS int64 // cumulative: sum of span durations
	SelfUS  int64 // flat: sum of durations not covered by child spans
}

// TopSpans returns the hottest span names by self time, largest first,
// truncated to n (n <= 0 returns all). Events are skipped — they have no
// duration.
func TopSpans(tree *obs.TraceTree, n int) []SpanAgg {
	agg := map[string]*SpanAgg{}
	tree.Walk(func(node *obs.TraceNode) {
		if node.Event {
			return
		}
		a, ok := agg[node.Name]
		if !ok {
			a = &SpanAgg{Name: node.Name}
			agg[node.Name] = a
		}
		a.Count++
		a.TotalUS += node.DurUS
		a.SelfUS += node.SelfUS()
	})
	out := make([]SpanAgg, 0, len(agg))
	for _, a := range agg {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// nodeCSVHeader is the column set of WriteNodeCSV, one row per recorded node
// event — a feature table for offline analysis (pandas, gnuplot).
var nodeCSVHeader = []string{
	"solve", "solver", "clip", "n", "depth", "act", "lb", "bound", "incumbent",
	"lp_iters", "pivots", "etas", "warm", "kind", "kids", "worker", "var", "frac", "start_us",
}

// WriteNodeCSV exports every recorded node event of every solve as CSV.
// The solve column numbers solves in trace order, so one file holding a
// whole sweep stays separable.
func WriteNodeCSV(w io.Writer, solves []SolveTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(nodeCSVHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for si := range solves {
		s := &solves[si]
		for _, ev := range s.Events {
			bound, inc := "", ""
			if ev.HasBound {
				bound = ff(ev.Bound)
			}
			if ev.HasIncumbent {
				inc = ff(ev.Incumbent)
			}
			rec := []string{
				strconv.Itoa(si), s.Solver, s.Clip,
				strconv.Itoa(ev.N), strconv.Itoa(ev.Depth), ev.Act,
				ff(ev.LB), bound, inc,
				strconv.Itoa(ev.LPIters), strconv.Itoa(ev.Pivots), strconv.Itoa(ev.Etas),
				strconv.FormatBool(ev.Warm), ev.Kind, strconv.Itoa(ev.Kids),
				strconv.Itoa(ev.Worker),
				strconv.Itoa(ev.Var), ff(ev.Frac), strconv.FormatInt(ev.StartUS, 10),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// PhaseTotal sums a solve's phase attribution in milliseconds.
func (s *SolveTrace) PhaseTotal() float64 {
	t := 0.0
	for _, ms := range s.PhasesMS {
		t += ms
	}
	return t
}

// PhaseLine renders a solve's phase breakdown as "phase 12.3ms, ..." sorted
// by time, largest first — the flame summary line of traceview.
func (s *SolveTrace) PhaseLine() string {
	type kv struct {
		k string
		v float64
	}
	pairs := make([]kv, 0, len(s.PhasesMS))
	for k, v := range s.PhasesMS {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v > pairs[j].v
		}
		return pairs[i].k < pairs[j].k
	})
	out := ""
	for _, p := range pairs {
		if out != "" {
			out += ", "
		}
		out += fmt.Sprintf("%s %.1fms", p.k, p.v)
	}
	return out
}
