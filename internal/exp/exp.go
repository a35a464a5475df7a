// Package exp implements the paper's BEOL rule evaluation flow (Fig. 6) and
// the experiments behind every table and figure:
//
//	Table 2  — benchmark design matrix (tech x design x utilization)
//	Fig. 7   — example clips (rendered by cmd/clipextract)
//	Fig. 8   — pin-cost distributions of top-100 clips
//	Table 3  — rule configurations (package tech)
//	Fig. 10  — sorted delta-cost per clip per rule, per technology
//	Sec. 4.2 — validation vs the heuristic ("commercial") router
//	Sec. 4   — ILP model size analysis
//	Sec. 5   — runtime study
//
// Scale is parameterized: tests and benches run a reduced testbed (smaller
// netlists, shallower stacks, shorter per-clip budgets); cmd/beoleval -full
// raises it toward the paper's dimensions. Results carry their scale so
// reports are self-describing.
package exp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"optrouter/internal/cells"
	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/drc"
	"optrouter/internal/extract"
	"optrouter/internal/netlist"
	"optrouter/internal/obs"
	"optrouter/internal/pincost"
	"optrouter/internal/place"
	"optrouter/internal/rgraph"
	"optrouter/internal/route"
	"optrouter/internal/sched"
	"optrouter/internal/sta"
	"optrouter/internal/tech"
)

// InfeasibleDelta is the paper's plotting convention: unroutable clips are
// charted at delta-cost 500.
const InfeasibleDelta = 500.0

// DesignSpec is one row of the benchmark matrix.
type DesignSpec struct {
	Profile string // "AES" or "M0"
	Size    int    // instance count
	Utils   []float64
}

// TestbedOptions scales the testbed.
type TestbedOptions struct {
	Designs []DesignSpec
	// Clip window (tracks) and stack depth.
	ClipW, ClipH, ClipNZ int
	// MaxNets drops overly crowded clips (exact solvers need bounded nets).
	MaxNets int
	// TopK clips (by pin cost) kept per technology (paper: 100).
	TopK int
	Seed int64
}

// QuickTestbed is the reduced-scale default used by tests and benches.
func QuickTestbed() TestbedOptions {
	return TestbedOptions{
		Designs: []DesignSpec{
			{Profile: "AES", Size: 300, Utils: []float64{0.89, 0.93}},
			{Profile: "M0", Size: 250, Utils: []float64{0.90, 0.95}},
		},
		ClipW: 7, ClipH: 10, ClipNZ: 4,
		MaxNets: 5,
		TopK:    10,
		Seed:    1,
	}
}

// FullTestbed approaches the paper's scale (still reduced in instance count
// for single-core wall time; the clip geometry matches the paper).
func FullTestbed() TestbedOptions {
	return TestbedOptions{
		Designs: []DesignSpec{
			{Profile: "AES", Size: 2000, Utils: []float64{0.89, 0.93, 0.97}},
			{Profile: "M0", Size: 1500, Utils: []float64{0.90, 0.93, 0.95}},
		},
		ClipW: 7, ClipH: 10, ClipNZ: 6,
		MaxNets: 8,
		TopK:    100,
		Seed:    1,
	}
}

// DesignRecord is one implemented design (a Table 2 row).
type DesignRecord struct {
	Tech      string
	Design    string
	Util      float64
	Insts     int
	Nets      int
	AchUtil   float64
	RouteWL   int
	RouteVias int
	Clips     int
	// PeriodNS is the achievable clock period from the Elmore STA
	// (Table 2's "Period (ns)" column).
	PeriodNS float64
}

// Testbed holds everything extracted for one technology.
type Testbed struct {
	Tech    *tech.Technology
	Options TestbedOptions
	Records []DesignRecord

	// AllClips are all extracted clips (with pin costs); Top are the
	// highest-pin-cost TopK across all designs (the paper's selection).
	AllClips []*clip.Clip
	Top      []*clip.Clip

	// PinCosts per design key ("AES-0.93") for Fig. 8.
	PinCosts map[string][]float64
}

// BuildTestbed runs synthesis/place/route/extract/rank for one technology.
func BuildTestbed(t *tech.Technology, opt TestbedOptions) (*Testbed, error) {
	lib := cells.Generate(t)
	tb := &Testbed{Tech: t, Options: opt, PinCosts: map[string][]float64{}}
	for _, spec := range opt.Designs {
		for ui, util := range spec.Utils {
			var prof netlist.Profile
			seed := opt.Seed + int64(ui)*101
			switch spec.Profile {
			case "AES":
				prof = netlist.AESClass(spec.Size, seed)
			case "M0":
				prof = netlist.M0Class(spec.Size, seed)
			default:
				return nil, fmt.Errorf("exp: unknown profile %q", spec.Profile)
			}
			nl, err := netlist.Generate(lib, prof)
			if err != nil {
				return nil, err
			}
			pl, err := place.Place(lib, nl, place.Options{TargetUtil: util})
			if err != nil {
				return nil, err
			}
			res, err := route.Route(pl, route.Options{Layers: opt.ClipNZ})
			if err != nil {
				return nil, err
			}
			clips := extract.All(res, extract.Options{
				WTracks: opt.ClipW, HTracks: opt.ClipH, NZ: opt.ClipNZ,
				MaxNets: opt.MaxNets,
			})
			key := fmt.Sprintf("%s-%.2f", spec.Profile, util)
			var costs []float64
			for _, c := range clips {
				c.Name = key + "/" + c.Name
				costs = append(costs, pincost.Cost(c))
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(costs)))
			tb.PinCosts[key] = costs
			tb.AllClips = append(tb.AllClips, clips...)

			wl, vias := res.WirelengthVias()
			timing, err := sta.Analyze(res)
			if err != nil {
				return nil, err
			}
			tb.Records = append(tb.Records, DesignRecord{
				Tech: t.Name, Design: spec.Profile, Util: util,
				Insts: len(nl.Instances), Nets: len(nl.Nets),
				AchUtil: pl.Utilization, RouteWL: wl, RouteVias: vias,
				Clips:    len(clips),
				PeriodNS: timing.PeriodNS,
			})
		}
	}
	tb.Top = pincost.RankTopK(tb.AllClips, opt.TopK)
	return tb, nil
}

// SolveOptions budgets the per-clip exact solves and carries the optional
// observability sinks threaded through every study.
type SolveOptions struct {
	PerClipTimeout time.Duration // default 10s
	MaxNodes       int

	// Workers is the solve-concurrency of the parallel studies: (clip, rule)
	// jobs are dispatched to this many scheduler workers (0 = NumCPU, 1 =
	// serial). Study outputs are assembled in study order, so results are
	// identical for any worker count (see README "Parallel evaluation").
	Workers int

	// Par brings parallelism inside each solve: the CDC-BnB expands its tree
	// in fixed-width rounds on Par workers. 0 runs the same loop in width-1
	// rounds on the solve's own goroutine, the serial search. The search is
	// deterministic by construction — routes and objective are identical for
	// every Par >= 1 (see README "Parallel search") — so study outputs do
	// not depend on which Par >= 1 is chosen.
	Par int

	// Progress, if non-nil, receives per-clip lifecycle events ("start",
	// "progress" during the solve, "done") — the source of cmd/beoleval's
	// live progress line. Studies serialize the callback (it is never
	// invoked concurrently with itself), and Index/Total always refer to
	// the solve's fixed position in study order, not dispatch order.
	Progress func(ClipProgress)
	// Metrics, if non-nil, accumulates run-wide counters and histograms
	// (nodes, lp_solves, wall_ms, ...) across all solves.
	Metrics *obs.Registry
	// Tracer, if non-nil, records one span per clip solve plus the solver's
	// own spans and events underneath it.
	Tracer *obs.Tracer
	// Flight configures per-node search-event recording on the solve spans
	// (effective only with a Tracer). Off by default — it costs solve wall
	// time on node-heavy sweeps.
	Flight obs.FlightOptions
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.PerClipTimeout == 0 {
		o.PerClipTimeout = 10 * time.Second
	}
	return o
}

// ClipProgress is one per-clip lifecycle event for live reporting.
type ClipProgress struct {
	Phase     string // "start", "progress" (mid-solve), "done"
	Clip      string
	Rule      string
	Index     int // 1-based solve index in study order (not dispatch order)
	Total     int // total solves the study will perform (0 if unknown)
	Worker    int // scheduler worker executing the solve (-1 outside a pool)
	Elapsed   time.Duration
	Nodes     int
	Incumbent int64 // best cost so far (-1 if none)
	Bound     int64 // proven lower bound (-1 before root)
	// Done and InFlight are the study-wide completion count and the number
	// of solves currently executing (both maintained by the study's
	// serialized progress aggregation; InFlight <= SolveOptions.Workers).
	Done     int
	InFlight int
	// Result is set on "done" events.
	Result *ClipRuleResult
}

// progressMux serializes a study's progress callback across worker
// goroutines and maintains the study-wide Done/InFlight counters, so a
// single live status line never interleaves across workers.
type progressMux struct {
	mu             sync.Mutex
	fn             func(ClipProgress)
	done, inflight int
}

func newProgressMux(fn func(ClipProgress)) *progressMux {
	if fn == nil {
		return nil
	}
	return &progressMux{fn: fn}
}

// emit forwards one event with aggregate counts attached. Nil-safe.
func (m *progressMux) emit(p ClipProgress) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch p.Phase {
	case "start":
		m.inflight++
	case "done":
		m.inflight--
		m.done++
	}
	p.Done, p.InFlight = m.done, m.inflight
	m.fn(p)
}

// sink adapts the mux back to a plain Progress callback.
func (m *progressMux) sink() func(ClipProgress) {
	if m == nil {
		return nil
	}
	return m.emit
}

// ClipRuleResult is one (clip, rule) cell of the Fig. 10 data.
type ClipRuleResult struct {
	Clip     string
	Rule     string
	Feasible bool
	Proven   bool
	Cost     int
	WL       int
	Vias     int
	Runtime  time.Duration
	Nodes    int
	// Routes are the cell's per-net arc ids (core.Solution.NetArcs; nil when
	// infeasible). Cells of one clip may share them: they are read-only.
	Routes [][]int32
	// ImpliedBy names the looser rule of the same clip whose proven verdict
	// the cell's proof rests on: its infeasibility, or its optimum as the
	// floor that the cell's routes meet. Empty when the cell's own search
	// proved it (or left it unproven). Stats.Termination is "implied" when
	// the cell needed no search at all.
	ImpliedBy string
	// Err is non-empty when the solve itself failed (e.g. a panic isolated
	// by the scheduler); such cells chart as unresolved, not as a proven
	// verdict.
	Err string
	// Stats is the solver's full per-solve telemetry.
	Stats core.SolveStats
}

// RuleCurve is one Fig. 10 curve: sorted delta-costs for a rule.
type RuleCurve struct {
	Rule string
	// Deltas are per-clip cost deltas vs RULE1, ascending; infeasible (or
	// unresolved-within-budget) clips appear as InfeasibleDelta.
	Deltas []float64
	// Infeasible counts clips with no routing under this rule.
	Infeasible int
	// Unproven counts clips whose verdict hit the solve budget.
	Unproven int
	// Failed counts clips whose solve crashed (panic isolated by the
	// scheduler); they chart at InfeasibleDelta and also count as Unproven.
	Failed int
}

// DeltaCostStudy runs OptRouter on each clip under each rule and assembles
// the sorted delta-cost curves of Fig. 10 for one technology. Each clip is
// one job: its (clip, rule) cells are CDC-BnB solves chained on one worker,
// looser rules first, each carrying what the looser rules proved (see
// clipSweep). The jobs are dispatched to SolveOptions.Workers scheduler
// workers and the curves are assembled in study order, so the output is
// identical for any worker count.
func DeltaCostStudy(t *tech.Technology, clips []*clip.Clip, opt SolveOptions) ([]RuleCurve, []ClipRuleResult, error) {
	return DeltaCostStudyCtx(context.Background(), t, clips, opt)
}

// DeltaCostStudyCtx is DeltaCostStudy with cancellation: cancelling ctx
// aborts in-flight solves at their next branch-and-bound node, drains the
// worker pool and returns the context's error.
func DeltaCostStudyCtx(ctx context.Context, t *tech.Technology, clips []*clip.Clip, opt SolveOptions) ([]RuleCurve, []ClipRuleResult, error) {
	opt = opt.withDefaults()
	rules := tech.RulesFor(t)
	if len(rules) == 0 || rules[0].Name != "RULE1" {
		return nil, nil, fmt.Errorf("exp: RULE1 must head the rule list")
	}

	if len(clips) == 0 {
		curves := make([]RuleCurve, 0, len(rules))
		for _, rule := range rules {
			curves = append(curves, RuleCurve{Rule: rule.Name})
		}
		return curves, nil, nil
	}

	// Decompose into one job per clip: the clip's cells under every rule run
	// sequentially on one worker, sharing one Steiner arena. The rule graphs
	// differ (each rule rebuilds the routing graph), but the solver's pooled
	// DP tables, queues and ban buffers recycle across all rules of the clip,
	// so the per-solve allocation cost is paid once per clip rather than once
	// per (clip, rule) cell. The job visits the rules in visitOrder, looser
	// first, so each cell can use what the looser rules proved. Study order
	// stays rule-major over clips: cell (ri, ci) reports Index
	// ri*len(clips)+ci+1 and results are reassembled in that order, so output
	// and progress indices do not depend on the visit order or the worker
	// count.
	total := len(rules) * len(clips)
	order := visitOrder(rules)
	prog := newProgressMux(opt.Progress)
	jobs := make([]sched.Job[[]ClipRuleResult], len(clips))
	for ci := range clips {
		ci := ci
		c := clips[ci]
		jobs[ci] = func(jctx context.Context) ([]ClipRuleResult, error) {
			arena := core.NewSteinerArena()
			jopt := opt
			jopt.Progress = prog.sink()
			sw := &clipSweep{rules: rules, out: make([]ClipRuleResult, len(rules))}
			for _, ri := range order {
				r, err := solveClipCtx(jctx, c, rules[ri], jopt, ri*len(clips)+ci+1, total, arena, sw.prior(ri))
				if err != nil {
					return nil, fmt.Errorf("exp: %s under %s: %w", c.Name, rules[ri].Name, err)
				}
				sw.record(ri, r)
			}
			return sw.out, nil
		}
	}
	results := sched.Run(ctx, jobs, sched.Options{
		Workers: opt.Workers,
		Metrics: opt.Metrics,
	})

	// Surface hard errors (graph construction, cancellation) in study
	// order; isolated panics degrade to failed cells below instead.
	for _, r := range results {
		if r.Err != nil && !r.Panicked {
			return nil, nil, r.Err
		}
	}

	// Assemble in study order (rule-major) — identical for any worker count.
	base := map[string]float64{} // clip -> RULE1 cost
	var curves []RuleCurve
	all := make([]ClipRuleResult, 0, total)
	for ri, rule := range rules {
		curves = append(curves, RuleCurve{Rule: rule.Name})
		curve := &curves[ri]
		for ci, c := range clips {
			var cr ClipRuleResult
			if r := results[ci]; r.Panicked {
				// A panicking solve takes the clip's whole job with it; every
				// cell of the clip degrades to a failed cell.
				cr = ClipRuleResult{Clip: c.Name, Rule: rule.Name, Err: r.Err.Error()}
			} else {
				cr = r.Value[ri]
			}
			all = append(all, cr)
			if cr.Rule == "RULE1" {
				if cr.Feasible {
					base[cr.Clip] = float64(cr.Cost)
				} else {
					// A clip unroutable even under RULE1 contributes no
					// meaningful baseline; chart it at infinity for every rule.
					base[cr.Clip] = math.Inf(1)
				}
			}
			var delta float64
			switch {
			case cr.Err != "":
				delta = InfeasibleDelta
				curve.Failed++
			case !cr.Feasible:
				delta = InfeasibleDelta
				curve.Infeasible++
			case math.IsInf(base[cr.Clip], 1):
				delta = InfeasibleDelta
			default:
				delta = float64(cr.Cost) - base[cr.Clip]
			}
			if !cr.Proven {
				curve.Unproven++
			}
			curve.Deltas = append(curve.Deltas, delta)
		}
	}
	for i := range curves {
		sort.Float64s(curves[i].Deltas)
	}
	return curves, all, nil
}

// visitOrder returns the indices of rules in the order a clip's job visits
// them: a linear extension of tech.Stricter, looser rules first. It takes,
// again and again, the first unvisited rule in list order that has no
// unvisited strictly looser rule, so it is a pure function of the list. For
// Table 3 it is RULE1, 5, 4, 3, 2, 6, 8, 7, 9, 11, 10.
func visitOrder(rules []tech.RuleConfig) []int {
	order := make([]int, 0, len(rules))
	visited := make([]bool, len(rules))
	for len(order) < len(rules) {
		for i, a := range rules {
			if visited[i] {
				continue
			}
			ready := true
			for j, b := range rules {
				if !visited[j] && tech.Stricter(a, b) && !tech.Stricter(b, a) {
					ready = false
					break
				}
			}
			if ready {
				visited[i] = true
				order = append(order, i)
				break
			}
		}
	}
	return order
}

// clipSweep is one clip's job state as it visits the rules looser first: the
// verdict of every visited cell and the distinct route sets found so far.
// A stricter rule's feasible set lies inside every looser rule's, because
// the rule graphs share their arcs and a stricter rule only adds design
// rules (DESIGN.md "Rule dominance"). So a looser rule's proven
// infeasibility carries over, its proven optimum is a floor, and any route
// set found under any rule that passes a rule's DRC is a routing under it.
type clipSweep struct {
	rules   []tech.RuleConfig
	out     []ClipRuleResult // by rule index
	visited []int            // rule indices in visit order
	found   []ClipRuleResult // cells with distinct route sets, ascending cost
}

// cellPrior is what a clip's sweep hands the solve of its next rule.
type cellPrior struct {
	infeasibleBy string // a looser rule proven infeasible ("" if none)
	floor        int    // the largest proven optimum of a looser rule (0 if none)
	floorBy      string
	found        []ClipRuleResult // the sweep's cells with distinct route sets, ascending cost
}

// prior collects the proven verdicts of the visited rules looser than rule
// ri. Unproven looser cells contribute routes but no bound.
func (s *clipSweep) prior(ri int) *cellPrior {
	p := &cellPrior{found: s.found}
	for _, rj := range s.visited {
		r := s.out[rj]
		if !r.Proven || !tech.Stricter(s.rules[ri], s.rules[rj]) {
			continue
		}
		if !r.Feasible {
			p.infeasibleBy = r.Rule
			break
		}
		if r.Cost > p.floor {
			p.floor, p.floorBy = r.Cost, r.Rule
		}
	}
	return p
}

// record keeps rule ri's cell and, when it is new, its route set.
func (s *clipSweep) record(ri int, r ClipRuleResult) {
	s.out[ri] = r
	s.visited = append(s.visited, ri)
	if !r.Feasible {
		return
	}
	at := len(s.found)
	for i, f := range s.found {
		if f.Cost == r.Cost && slices.EqualFunc(f.Routes, r.Routes, slices.Equal[[]int32]) {
			return
		}
		if f.Cost > r.Cost {
			at = min(at, i)
		}
	}
	s.found = slices.Insert(s.found, at, r)
}

// cheapestClean returns the cheapest of the found route sets that passes
// g's design rules, or nil. Route sets cost the same under every rule:
// costs, wires and via sites are arc properties, and the arcs do not depend
// on the rule.
func (p *cellPrior) cheapestClean(g *rgraph.Graph) *ClipRuleResult {
	if len(p.found) == 0 {
		return nil
	}
	chk := drc.NewChecker(g)
	for i := range p.found {
		if len(chk.Check(p.found[i].Routes)) == 0 {
			return &p.found[i]
		}
	}
	return nil
}

// SolveClip routes one clip under one rule with the exact CDC-BnB solver.
func SolveClip(c *clip.Clip, rule tech.RuleConfig, opt SolveOptions) (ClipRuleResult, error) {
	return solveClipCtx(context.Background(), c, rule, opt, 1, 1, nil, nil)
}

// solveClipCtx is SolveClip plus the study position (solve idx of total) for
// progress reporting and metrics accounting, a context that cancels the
// solve between branch-and-bound nodes, an optional Steiner arena reused
// across the solves of one worker (nil = private arena per solve) and an
// optional prior from the looser rules of the clip's sweep (nil = none).
// With a prior, a cell whose verdict follows from it is decided without a
// search; otherwise the prior's floor and cheapest clean route set become
// the search's Floor and Incumbent.
func solveClipCtx(ctx context.Context, c *clip.Clip, rule tech.RuleConfig, opt SolveOptions, idx, total int, arena *core.SteinerArena, p *cellPrior) (ClipRuleResult, error) {
	opt = opt.withDefaults()
	worker := sched.WorkerID(ctx)
	start := func() {
		if opt.Progress != nil {
			opt.Progress(ClipProgress{
				Phase: "start", Clip: c.Name, Rule: rule.Name,
				Index: idx, Total: total, Worker: worker, Incumbent: -1, Bound: -1,
			})
		}
	}
	if p == nil {
		p = &cellPrior{}
	}
	var r ClipRuleResult
	if p.infeasibleBy != "" {
		start()
		r = impliedCell(c, rule, opt, time.Now(), p.infeasibleBy, nil)
	} else {
		g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
		if err != nil {
			return ClipRuleResult{}, err
		}
		start()
		t0 := time.Now()
		seed := p.cheapestClean(g)
		if seed != nil && p.floor > 0 && seed.Cost <= p.floor {
			r = impliedCell(c, rule, opt, t0, p.floorBy, seed)
		} else if r, err = searchCell(ctx, c, g, opt, idx, total, arena, p, seed); err != nil {
			return ClipRuleResult{}, err
		}
	}
	recordSolveMetrics(opt.Metrics, r)
	if opt.Progress != nil {
		inc := int64(-1)
		if r.Feasible {
			inc = int64(r.Cost)
		}
		opt.Progress(ClipProgress{
			Phase: "done", Clip: c.Name, Rule: rule.Name,
			Index: idx, Total: total, Worker: worker, Elapsed: r.Runtime,
			Nodes: r.Nodes, Incumbent: inc, Bound: inc, Result: &r,
		})
	}
	return r, nil
}

// impliedCell is a cell proven without a search, on the proof of rule by:
// infeasible when seed is nil, else optimal with seed's routes.
func impliedCell(c *clip.Clip, rule tech.RuleConfig, opt SolveOptions, t0 time.Time, by string, seed *ClipRuleResult) ClipRuleResult {
	r := ClipRuleResult{
		Clip: c.Name, Rule: rule.Name, Proven: true, ImpliedBy: by,
		Stats: core.SolveStats{Par: opt.Par, Termination: "implied"},
	}
	if seed != nil {
		r.Feasible = true
		r.Cost, r.WL, r.Vias, r.Routes = seed.Cost, seed.WL, seed.Vias, seed.Routes
	}
	r.Runtime = time.Since(t0)
	r.Stats.Elapsed = r.Runtime
	return r
}

// searchCell runs the CDC-BnB on one cell's graph, seeded with the prior's
// floor and route set.
func searchCell(ctx context.Context, c *clip.Clip, g *rgraph.Graph, opt SolveOptions, idx, total int, arena *core.SteinerArena, p *cellPrior, seed *ClipRuleResult) (ClipRuleResult, error) {
	rule := g.Opt.Rule
	bnbOpt := core.BnBOptions{
		TimeLimit: opt.PerClipTimeout,
		MaxNodes:  opt.MaxNodes,
		Par:       opt.Par,
		Tracer:    opt.Tracer,
		Flight:    opt.Flight,
		Ctx:       ctx,
		Arena:     arena,
		Floor:     int64(p.floor),
	}
	if seed != nil {
		bnbOpt.Incumbent = seed.Routes
	}
	if opt.Progress != nil {
		worker := sched.WorkerID(ctx)
		bnbOpt.Progress = func(bp core.BnBProgress) {
			opt.Progress(ClipProgress{
				Phase: "progress", Clip: c.Name, Rule: rule.Name,
				Index: idx, Total: total, Worker: worker, Elapsed: bp.Elapsed,
				Nodes: bp.Nodes, Incumbent: bp.Incumbent, Bound: bp.Bound,
			})
		}
	}
	sol, err := core.SolveBnB(g, bnbOpt)
	if err != nil {
		return ClipRuleResult{}, err
	}
	r := ClipRuleResult{
		Clip: c.Name, Rule: rule.Name,
		Feasible: sol.Feasible, Proven: sol.Proven,
		Cost: sol.Cost, WL: sol.Wirelength, Vias: sol.Vias,
		Runtime: sol.Runtime, Nodes: sol.Nodes,
		Routes: sol.NetArcs,
		Stats:  sol.Stats,
	}
	if sol.Stats.Termination == "floor" {
		r.ImpliedBy = p.floorBy
	}
	return r, nil
}

// recordSolveMetrics folds one cell into the run-wide registry. A searched
// cell adds every core.SolveCounters row under its name, plus the solve
// count, wall and DRC time; a cell implied without a search counts under
// "implied" instead. Both add to the outcome tallies. The flat key set is
// the metrics schema cmd/beoleval -stats emits; see README "Observability".
func recordSolveMetrics(m *obs.Registry, r ClipRuleResult) {
	if m == nil {
		return
	}
	if !r.Feasible {
		m.Counter("infeasible").Inc()
	}
	if !r.Proven {
		m.Counter("unproven").Inc()
	}
	if r.Stats.Termination == "implied" {
		m.Counter("implied").Inc()
		return
	}
	st := r.Stats
	m.Counter("solves").Inc()
	for _, c := range core.SolveCounters {
		m.Counter(c.Name).Add(c.Get(&st))
	}
	m.Counter("drc_ms").Add(st.DRCTime.Milliseconds())
	m.Counter("wall_ms").Add(r.Runtime.Milliseconds())
	m.Histogram("solve_ms").ObserveDuration(r.Runtime)
	m.Histogram("nodes_per_solve").Observe(float64(st.Nodes))
	m.Histogram("depth_per_solve").Observe(float64(st.MaxDepth))
	// Per-sweep phase attribution: fold each solve's breakdown into
	// microsecond counters (milliseconds would truncate the many sub-ms
	// phases of small clips to zero).
	for name, d := range st.Phases {
		m.Counter("phase_" + name + "_us").Add(d.Microseconds())
	}
	for name, d := range st.LPPhases {
		m.Counter("lp_phase_" + name + "_us").Add(d.Microseconds())
	}
}

// ValidationResult compares OptRouter to the heuristic router on one clip
// (the paper's footnote-6 study: OptRouter always achieves non-positive
// delta-cost vs the commercial router).
type ValidationResult struct {
	Clip          string
	HeuristicCost int
	OptimalCost   int
	Delta         int // optimal - heuristic (expected <= 0)
}

// ValidationStudy runs both routers on each clip under RULE1. Clips are
// independent, so they are dispatched to SolveOptions.Workers scheduler
// workers; the result list keeps clip order.
func ValidationStudy(clips []*clip.Clip, opt SolveOptions) ([]ValidationResult, error) {
	opt = opt.withDefaults()
	jobs := make([]sched.Job[*ValidationResult], len(clips))
	for i := range clips {
		c := clips[i]
		jobs[i] = func(ctx context.Context) (*ValidationResult, error) {
			g, err := rgraph.Build(c, rgraph.Options{})
			if err != nil {
				return nil, err
			}
			arena := core.NewSteinerArena() // shared by both solves of the clip
			h := core.SolveHeuristic(g, core.HeuristicOptions{Arena: arena})
			if !h.Feasible {
				return nil, nil // no heuristic baseline to compare against
			}
			o, err := core.SolveBnB(g, core.BnBOptions{
				TimeLimit: opt.PerClipTimeout, MaxNodes: opt.MaxNodes, Ctx: ctx,
				Arena: arena,
			})
			if err != nil {
				return nil, err
			}
			if !o.Feasible {
				return nil, nil
			}
			return &ValidationResult{
				Clip: c.Name, HeuristicCost: h.Cost, OptimalCost: o.Cost,
				Delta: o.Cost - h.Cost,
			}, nil
		}
	}
	results := sched.Run(context.Background(), jobs, sched.Options{
		Workers: opt.Workers, Metrics: opt.Metrics,
	})
	var out []ValidationResult
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		if r.Value != nil {
			out = append(out, *r.Value)
		}
	}
	return out, nil
}

// ModelSize reports ILP dimensions for one clip under one rule (the paper's
// Section 4 variable/constraint analysis).
type ModelSize struct {
	Rule        string
	Verts       int
	Arcs        int
	Nets        int
	Vars        int
	Constraints int
	EVars       int
	FVars       int
	PVars       int
	ProductVars int
}

// ModelSizeStudy builds (without solving) the ILP for each rule. Builds are
// independent per rule and run on the scheduler (NumCPU workers); the output
// keeps rule order.
func ModelSizeStudy(c *clip.Clip, rules []tech.RuleConfig) ([]ModelSize, error) {
	jobs := make([]sched.Job[ModelSize], len(rules))
	for i := range rules {
		rule := rules[i]
		jobs[i] = func(ctx context.Context) (ModelSize, error) {
			g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
			if err != nil {
				return ModelSize{}, err
			}
			m := core.BuildILP(g)
			st := g.Stats()
			return ModelSize{
				Rule:  rule.Name,
				Verts: st.Verts, Arcs: st.Arcs, Nets: len(c.Nets),
				Vars:        m.Model.NumVars(),
				Constraints: m.Model.NumConstraints(),
				EVars:       m.NumEVars, FVars: m.NumFVars,
				PVars: m.NumPVars, ProductVars: m.NumProductVars,
			}, nil
		}
	}
	results := sched.Run(context.Background(), jobs, sched.Options{})
	out := make([]ModelSize, 0, len(rules))
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out = append(out, r.Value)
	}
	return out, nil
}
