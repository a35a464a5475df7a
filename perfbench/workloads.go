package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"optrouter/internal/cells"
	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/exp"
	"optrouter/internal/extract"
	"optrouter/internal/ilp"
	"optrouter/internal/netlist"
	"optrouter/internal/obs"
	"optrouter/internal/pincost"
	"optrouter/internal/place"
	"optrouter/internal/rgraph"
	"optrouter/internal/route"
	"optrouter/internal/sta"
	"optrouter/internal/tech"
)

// solveBudget is the per-solve wall budget. The inputs are screened so that
// every solve proves far below it; a solve that reaches it counts as failed.
const solveBudget = 60 * time.Second

// answer is one (clip, rule) verdict.
type answer struct {
	Clip     string `json:"clip"`
	Rule     string `json:"rule"`
	Feasible bool   `json:"feasible"`
	Cost     int    `json:"cost"`

	proven bool
	err    string
	nodes  int
	iters  int
	routes [][]int32 // set where the solver hands them back (the MILP path)
	clip   *clip.Clip
	rule   tech.RuleConfig
}

// iteration is what one timed pass over a workload's inputs produced.
type iteration struct {
	wall    time.Duration
	answers []answer
	// counts holds deterministic work and per-layer figures taken from the
	// layers' own return values (route iterations, solver statistics).
	counts map[string]float64
	// solveMS are per-solve wall times seen from outside the solver (only
	// collected on the traced iteration).
	solveMS []float64
}

// instance is one workload's inputs, generated from the seed.
type instance interface {
	// run makes one pass; rec is nil on untraced passes.
	run(rec *recorder) (*iteration, error)
	// rules lists the rule set each clip is solved under.
	rules() []tech.RuleConfig
}

type workload struct {
	name  string
	setup func(seed int64) (instance, error)
}

var workloads = []workload{
	{"fig6-flow", setupFig6},
	{"rule-sweep", setupRuleSweep},
	{"milp", setupMILP},
}

// pick draws one candidate from each stratum of a screened pool; the draw
// depends only on the seed and the pool's salt.
func pick(strata [][]int64, seed int64, salt int64) []int64 {
	rng := rand.New(rand.NewSource(seed*7919 + salt))
	out := make([]int64, len(strata))
	for i, s := range strata {
		out[i] = s[rng.Intn(len(s))]
	}
	return out
}

// synth builds the benchmark's synthetic clip shape: nets of one or two
// sinks with two access points per in-cell pin.
func synth(nx, ny, nz int, seed int64) *clip.Clip {
	return clip.Synthesize(clip.SynthOptions{
		NX: nx, NY: ny, NZ: nz, MinLayer: 1,
		NumNets: 3, MaxSinks: 2, PinAPs: 2,
		BoundaryFrac: 0.4, ObstacleFrac: 0.05, Seed: seed,
	})
}

// ---- fig6-flow -----------------------------------------------------------

// fig6Design is one Table 2 row of the quick testbed.
type fig6Design struct {
	profile netlist.Profile
	util    float64
	key     string
}

type fig6 struct {
	tech    *tech.Technology
	designs []fig6Design
	opt     exp.TestbedOptions
}

func setupFig6(seed int64) (instance, error) {
	designSeed := pickDesign(seed)
	opt := exp.QuickTestbed()
	opt.MaxNets = 4
	opt.Seed = designSeed
	f := &fig6{tech: tech.N28T12(), opt: opt}
	for _, spec := range opt.Designs {
		for ui, util := range spec.Utils {
			s := opt.Seed + int64(ui)*101 // exp.BuildTestbed's per-utilization seed
			var prof netlist.Profile
			switch spec.Profile {
			case "AES":
				prof = netlist.AESClass(spec.Size, s)
			case "M0":
				prof = netlist.M0Class(spec.Size, s)
			default:
				return nil, fmt.Errorf("unknown profile %q", spec.Profile)
			}
			f.designs = append(f.designs, fig6Design{
				profile: prof, util: util, key: fmt.Sprintf("%s-%.2f", spec.Profile, util),
			})
		}
	}
	return f, nil
}

func (f *fig6) rules() []tech.RuleConfig { return tech.RulesFor(f.tech) }

// run is the Fig. 6 flow: cells, then per design netlist, placement,
// global-detail routing, clip extraction, pin cost and timing, then the
// pin-cost top-K and the RULE1-11 study over it.
func (f *fig6) run(rec *recorder) (*iteration, error) {
	t0 := time.Now()
	root := rec.start(nil, "fig6.run")
	counts := map[string]float64{}

	s := rec.start(root, "cells.Generate")
	lib := cells.Generate(f.tech)
	s.end()

	var all []*clip.Clip
	for _, d := range f.designs {
		s = rec.start(root, "netlist.Generate")
		s.set("design", d.key)
		nl, err := netlist.Generate(lib, d.profile)
		s.end()
		if err != nil {
			return nil, err
		}
		s = rec.start(root, "place.Place")
		pl, err := place.Place(lib, nl, place.Options{TargetUtil: d.util})
		s.end()
		if err != nil {
			return nil, err
		}
		s = rec.start(root, "route.Route")
		res, err := route.Route(pl, route.Options{Layers: f.opt.ClipNZ})
		s.end()
		if err != nil {
			return nil, err
		}
		wl, vias := res.WirelengthVias()
		counts["route.iters"] += float64(res.Iters)
		counts["route.conflicts"] += float64(res.Conflicts)
		counts["route.wl"] += float64(wl)
		counts["route.vias"] += float64(vias)

		s = rec.start(root, "extract.All")
		clips := extract.All(res, extract.Options{
			WTracks: f.opt.ClipW, HTracks: f.opt.ClipH, NZ: f.opt.ClipNZ, MaxNets: f.opt.MaxNets,
		})
		s.end()
		counts["extract.clips"] += float64(len(clips))

		s = rec.start(root, "pincost.Cost")
		for _, c := range clips {
			c.Name = d.key + "/" + c.Name
			pincost.Cost(c)
		}
		s.end()
		all = append(all, clips...)

		s = rec.start(root, "sta.Analyze")
		_, err = sta.Analyze(res)
		s.end()
		if err != nil {
			return nil, err
		}
	}
	s = rec.start(root, "pincost.RankTopK")
	top := pincost.RankTopK(all, f.opt.TopK)
	s.end()

	it, err := study(rec, root, f.tech, top, 1)
	if err != nil {
		return nil, err
	}
	for k, v := range counts {
		it.counts[k] = v
	}
	root.end()
	it.wall = time.Since(t0)
	return it, nil
}

// ---- rule-sweep ----------------------------------------------------------

type ruleSweep struct {
	tech  *tech.Technology
	clips []*clip.Clip
}

func setupRuleSweep(seed int64) (instance, error) {
	w := &ruleSweep{tech: tech.N28T12()}
	for _, s := range pick(pools.RuleSweep, seed, 1) {
		w.clips = append(w.clips, synth(7, 10, 4, s))
	}
	return w, nil
}

func (w *ruleSweep) rules() []tech.RuleConfig { return tech.RulesFor(w.tech) }

func (w *ruleSweep) run(rec *recorder) (*iteration, error) {
	t0 := time.Now()
	root := rec.start(nil, "rule-sweep.run")
	it, err := study(rec, root, w.tech, w.clips, 2)
	if err != nil {
		return nil, err
	}
	root.end()
	it.wall = time.Since(t0)
	return it, nil
}

// study runs exp.DeltaCostStudy on the clips with the given worker count.
// On a traced pass it follows the study's Progress events, so every solve
// and every graph build between two solves becomes a span, and derives the
// worker-pool figures from that timeline.
func study(rec *recorder, parent *span, t *tech.Technology, clips []*clip.Clip, workers int) (*iteration, error) {
	opt := exp.SolveOptions{PerClipTimeout: solveBudget, Workers: workers}
	s := rec.start(parent, "exp.DeltaCostStudy")
	var tr *solveTracker
	if rec != nil {
		tr = newSolveTracker(rec, s, len(clips))
		opt.Progress = func(p exp.ClipProgress) {
			var phases obs.Breakdown
			nodes, proven := 0, false
			if p.Result != nil {
				phases, nodes, proven = p.Result.Stats.Phases, p.Result.Nodes, p.Result.Proven
			}
			tr.event(p.Phase, p.Clip, p.Rule, p.Index, p.Worker, nodes, proven, phases)
		}
	}
	before := readMem().alloc
	_, results, err := exp.DeltaCostStudy(t, clips, opt)
	end := time.Now()
	alloc := readMem().alloc - before
	s.endAt(end)
	if err != nil {
		return nil, err
	}

	it := &iteration{counts: map[string]float64{}}
	byName := map[string]*clip.Clip{}
	for _, c := range clips {
		byName[c.Name] = c
	}
	ruleOf := map[string]tech.RuleConfig{}
	for _, r := range tech.RulesFor(t) {
		ruleOf[r.Name] = r
	}
	var phases obs.Breakdown
	for _, r := range results {
		it.answers = append(it.answers, answer{
			Clip: r.Clip, Rule: r.Rule, Feasible: r.Feasible, Cost: r.Cost,
			proven: r.Proven, err: r.Err, nodes: r.Nodes,
			clip: byName[r.Clip], rule: ruleOf[r.Rule],
		})
		st := r.Stats
		it.counts["core.nodes"] += float64(st.Nodes)
		it.counts["core.steiner_solves"] += float64(st.SteinerSolves)
		it.counts["core.steiner_cache_hits"] += float64(st.SteinerCacheHits)
		it.counts["core.drc_checks"] += float64(st.DRCChecks)
		it.counts["core.lagrangian_rounds"] += float64(st.LagrangianRounds)
		it.counts["core.bans_generated"] += float64(st.BansGenerated)
		phases = phases.Merge(st.Phases)
	}
	for _, name := range []string{"steiner", "drc", "lagrangian", "branch", "search", "seed"} {
		it.counts["core.phase."+name+"_ms"] = float64(phases[name].Microseconds()) / 1000
	}
	if n := it.counts["core.nodes"]; n > 0 {
		it.counts["core.alloc_kb_per_node"] = float64(alloc) / 1024 / n
	}
	if tr != nil {
		it.solveMS = tr.solveMS
		it.counts["rgraph.builds"] = float64(tr.gaps)
		busy, wait, tail := tr.schedMetrics(end, workers)
		it.counts["sched.busy_frac"] = busy
		it.counts["sched.wait_ms"] = wait
		it.counts["sched.tail_ms"] = tail
	}
	return it, nil
}

// ---- milp ----------------------------------------------------------------

type milp struct {
	clips []*clip.Clip
	rs    []tech.RuleConfig
}

// milpRules are the Table 3 rows the MILP workload solves: no restriction,
// SADP from M2 with 4 blocked vias, SADP from M3 with 4 blocked vias.
var milpRules = []string{"RULE1", "RULE7", "RULE8"}

func setupMILP(seed int64) (instance, error) {
	w := &milp{}
	for _, s := range pick(pools.MILP5x6, seed, 2) {
		w.clips = append(w.clips, synth(5, 6, 3, s))
	}
	for _, s := range pick(pools.MILP4x5, seed, 3) {
		c := synth(4, 5, 3, s)
		c.Name = fmt.Sprintf("synth4x5-%d", s)
		w.clips = append(w.clips, c)
	}
	for _, n := range milpRules {
		r, ok := tech.RuleByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown rule %s", n)
		}
		w.rs = append(w.rs, r)
	}
	return w, nil
}

func (w *milp) rules() []tech.RuleConfig { return w.rs }

// run solves every (clip, rule) with core.SolveILP, serially.
func (w *milp) run(rec *recorder) (*iteration, error) {
	t0 := time.Now()
	root := rec.start(nil, "milp.run")
	it := &iteration{counts: map[string]float64{}}
	var phases obs.Breakdown
	for _, r := range w.rs {
		for _, c := range w.clips {
			s := rec.start(root, "rgraph.Build")
			g, err := rgraph.Build(c, rgraph.Options{Rule: r})
			s.end()
			if err != nil {
				return nil, err
			}
			it.counts["rgraph.builds"]++
			ts := time.Now()
			s = rec.start(root, "ilp.SolveILP")
			sol, err := core.SolveILP(g, ilp.Options{TimeLimit: solveBudget})
			if err != nil {
				return nil, err
			}
			s.set("clip", c.Name)
			s.set("rule", r.Name)
			s.set("program_phases_ms", sol.Stats.Phases.MS())
			s.end()
			if rec != nil {
				it.solveMS = append(it.solveMS, msBetween(ts, time.Now()))
			}
			it.answers = append(it.answers, answer{
				Clip: c.Name, Rule: r.Name, Feasible: sol.Feasible, Cost: sol.Cost,
				proven: sol.Proven, nodes: sol.Nodes, iters: sol.LPIters,
				routes: sol.NetArcs, clip: c, rule: r,
			})
			st := sol.Stats
			it.counts["ilp.nodes"] += float64(st.Nodes)
			it.counts["lp.solves"] += float64(st.LPSolves)
			it.counts["lp.simplex_iters"] += float64(st.LPIters)
			it.counts["lp.ftran_nnz"] += float64(st.LPFTRANNnz)
			it.counts["lp.btran_nnz"] += float64(st.LPBTRANNnz)
			phases = phases.Merge(st.Phases)
		}
	}
	for _, name := range []string{"setup", "presolve", "root_lp", "node_lp"} {
		it.counts["ilp.phase."+name+"_ms"] = float64(phases[name].Microseconds()) / 1000
	}
	root.end()
	it.wall = time.Since(t0)
	return it, nil
}

// percentile is the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}
