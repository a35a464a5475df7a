// Command perfbench is the repository benchmark. It runs one named workload
// of the rule-evaluation flow on inputs generated from a seed, times it from
// outside the program with tracing off, checks every answer without trusting
// the solvers, and prints one JSON result as its last line of output.
//
// Usage (normally through run.sh, which builds it first):
//
//	perfbench -workload fig6-flow|rule-sweep|milp -seed N -seconds S -trace 0|1 [-out dir]
//	perfbench -workload W -golden    print the default seed's answers as JSON
//
// A run sets up its inputs several times and keeps the median set-up time,
// then repeats the workload until S seconds have passed (at least once) and
// reports the median pass. With -trace 1 it adds one traced pass, a
// calibration score and a sampling profile, and reports the per-layer
// metrics instead of the end-to-end ones. README.md lists both sets.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"optrouter/internal/calib"
	"optrouter/internal/obs"
)

// defaultSeed is the seed whose answers golden.json records.
const defaultSeed = 1

//go:embed inputs.json
var inputsJSON []byte

//go:embed golden.json
var goldenJSON []byte

// pools are the screened candidate inputs the seeds draw from (README.md
// explains the screening). Each inner list is one stratum.
var pools struct {
	Fig6Designs []int64   `json:"fig6_design_seeds"`
	RuleSweep   [][]int64 `json:"rule_sweep_7x10x4"`
	MILP5x6     [][]int64 `json:"milp_5x6x3"`
	MILP4x5     [][]int64 `json:"milp_4x5x3"`
}

func pickDesign(seed int64) int64 { return pick([][]int64{pools.Fig6Designs}, seed, 0)[0] }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: fig6-flow, rule-sweep or milp")
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Int("seconds", 10, "measure for this long (at least one pass)")
		trace   = flag.Int("trace", 0, "1 = add a traced pass and report per-layer metrics")
		outDir  = flag.String("out", ".bench_build/out", "directory for traces and profiles")
		golden  = flag.Bool("golden", false, "print the default seed's answers as JSON and exit")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}

	// Set-up: parse the committed inputs and generate this seed's inputs,
	// repeatedly for about a second; the median is reported.
	var inst instance
	var want map[string][]answer
	var setups []float64
	runtime.GC()
	for start := time.Now(); len(setups) < 5 || (len(setups) < 1000 && time.Since(start) < time.Second); {
		t0 := time.Now()
		if err := json.Unmarshal(inputsJSON, &pools); err != nil {
			return fmt.Errorf("inputs.json: %w", err)
		}
		if err := json.Unmarshal(goldenJSON, &want); err != nil {
			return fmt.Errorf("golden.json: %w", err)
		}
		var err error
		if inst, err = w.setup(*seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Untraced passes: the end-to-end measurement. A pass starts only if a
	// pass of median length would still end within the measuring time, so a
	// run lasts about -seconds however long one pass is.
	heap := startHeapSampler(10 * time.Millisecond)
	var passes []*iteration
	var peaks []float64
	var mem []memDelta
	budget := time.Duration(*seconds) * time.Second
	for start := time.Now(); len(passes) == 0 || time.Since(start)+time.Duration(median(walls(passes))*float64(time.Second)) <= budget; {
		heap.reset()
		m0 := readMem()
		it, err := inst.run(nil)
		if err != nil {
			heap.stop()
			return err
		}
		mem = append(mem, readMem().sub(m0))
		peaks = append(peaks, heap.peakMB())
		passes = append(passes, it)
	}
	heap.stop()

	problems := checkAnswers(passes[0].answers, inst.rules(), runtime.NumCPU())
	for _, p := range passes[1:] {
		problems = append(problems, sameAnswers(passes[0].answers, p.answers)...)
	}
	if *seed == defaultSeed {
		problems = append(problems, checkGolden(passes[0].answers, want[w.name])...)
	}
	if *golden {
		return printGolden(w.name, *seed, passes[0].answers, problems)
	}

	res := result{Metrics: map[string]metric{}}
	all := passes
	if *trace == 1 {
		traced, layers, err := tracedPass(w.name, *seed, inst, *outDir)
		if err != nil {
			return err
		}
		problems = append(problems, sameAnswers(passes[0].answers, traced.answers)...)
		all = append(all, traced)
		untraced := median(walls(passes))
		layers["trace.overhead_frac"] = metric{traced.wall.Seconds()/untraced - 1, "fraction"}
		md := medianMem(mem)
		layers["go.alloc_mb"] = metric{md.allocMB, "MB"}
		layers["go.gc_pause_ms"] = metric{md.pauseMS, "ms"}
		layers["go.num_gc"] = metric{md.numGC, "count"}
		res.Metrics = layers
	}
	failedSolves := 0
	for _, p := range all {
		res.Attempted += len(p.answers)
		for _, a := range p.answers {
			if !a.proven || a.err != "" {
				failedSolves++
			}
		}
	}
	res.Failed = failedSolves + len(problems)
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	if *trace == 0 {
		wall := median(walls(passes))
		proven := 0.0
		for _, a := range passes[0].answers {
			if a.proven && a.err == "" {
				proven++
			}
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["wall_s"] = metric{wall, "s"}
		res.Metrics["solves_per_s"] = metric{proven / wall, "1/s"}
		res.Metrics["proven_frac"] = metric{1 - float64(res.Failed)/float64(max(res.Attempted, 1)), "fraction"}
		res.Metrics["peak_heap_mb"] = metric{median(peaks), "MB"}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d passes, walls %s\n", w.name, *seed, len(passes), fmtWalls(passes))
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tracedPass makes one pass with spans, a calibration score and a sampling
// profile, writes the trace and the profile under outDir, and derives the
// per-layer metrics.
func tracedPass(name string, seed int64, inst instance, outDir string) (*iteration, map[string]metric, error) {
	score := calib.Run(calib.Options{}).ScoreNs
	runID := fmt.Sprintf("%s-s%d-%d", name, seed, time.Now().UnixNano())
	rec := newRecorder(runID)
	sampler := obs.StartSampler(obs.SamplerOptions{})
	it, err := inst.run(rec)
	prof := sampler.Profile(0)
	sampler.Stop()
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-s%d", name, seed))
	if err := rec.write(base + ".trace.jsonl"); err != nil {
		return nil, nil, err
	}
	if err := writeProfile(base+".profile.txt", prof); err != nil {
		return nil, nil, err
	}

	self := rec.selfTimes()
	wallMS := float64(it.wall.Microseconds()) / 1000
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{it.counts[lm.name], lm.unit}
	}
	for _, l := range []string{"cells", "netlist", "place", "route", "extract", "pincost", "sta", "rgraph", "exp"} {
		m[l+".ms"] = metric{self[l], "ms"}
	}
	m["core.bnb_ms"] = metric{self["core"], "ms"}
	m["ilp.ms"] = metric{self["ilp"], "ms"}
	ratio := 0.0
	if h, s := it.counts["core.steiner_cache_hits"], it.counts["core.steiner_solves"]; h+s > 0 {
		ratio = h / (h + s)
	}
	m["core.steiner_cache_hit_ratio"] = metric{ratio, "ratio"}
	m["exp.solves"] = metric{float64(len(it.solveMS)), "count"}
	m["exp.solve_ms.p50"] = metric{percentile(it.solveMS, 0.5), "ms"}
	m["exp.solve_ms.p90"] = metric{percentile(it.solveMS, 0.9), "ms"}
	m["trace.unattributed_frac"] = metric{self[""] / wallMS, "fraction"}
	m["trace.wall_ms"] = metric{wallMS, "ms"}
	m["calib.score_ns"] = metric{score, "ns"}
	fmt.Fprintf(os.Stderr, "perfbench: trace %s.trace.jsonl, profile %s.profile.txt\n", base, base)
	return it, m, nil
}

// layerMetrics are the per-layer figures taken straight from the layers'
// return values (iteration.counts), with their units.
var layerMetrics = []struct{ name, unit string }{
	{"route.iters", "count"}, {"route.conflicts", "count"}, {"route.wl", "count"}, {"route.vias", "count"},
	{"extract.clips", "count"}, {"rgraph.builds", "count"},
	{"sched.busy_frac", "fraction"}, {"sched.wait_ms", "ms"}, {"sched.tail_ms", "ms"},
	{"core.nodes", "count"}, {"core.steiner_solves", "count"}, {"core.drc_checks", "count"},
	{"core.lagrangian_rounds", "count"}, {"core.bans_generated", "count"}, {"core.alloc_kb_per_node", "KB"},
	{"core.phase.steiner_ms", "ms"}, {"core.phase.drc_ms", "ms"}, {"core.phase.lagrangian_ms", "ms"},
	{"core.phase.branch_ms", "ms"}, {"core.phase.search_ms", "ms"}, {"core.phase.seed_ms", "ms"},
	{"ilp.nodes", "count"}, {"lp.solves", "count"}, {"lp.simplex_iters", "count"},
	{"lp.ftran_nnz", "count"}, {"lp.btran_nnz", "count"},
	{"ilp.phase.setup_ms", "ms"}, {"ilp.phase.presolve_ms", "ms"}, {"ilp.phase.root_lp_ms", "ms"},
	{"ilp.phase.node_lp_ms", "ms"},
}

// writeProfile writes the top-15 functions by self samples. A goroutine
// stopped by asynchronous preemption has runtime.asyncPreempt2 as its leaf,
// which hides the function it interrupted; those samples are counted in the
// header and left out of the ranking.
func writeProfile(path string, p obs.Profile) error {
	var top []obs.FuncSample
	var preempted int64
	for _, f := range p.Funcs {
		if strings.HasPrefix(f.Fn, "runtime.asyncPreempt") {
			preempted += f.Self
		} else if len(top) < 15 {
			top = append(top, f)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# top %d functions by self samples; %d stacks at %d Hz, %d of them preempted (leaf not attributable)\n",
		len(top), p.Samples, p.Hz, preempted)
	fmt.Fprintf(&b, "#  self    cum function\n")
	for _, f := range top {
		fmt.Fprintf(&b, "%6d %6d %s\n", f.Self, f.Cum, f.Fn)
	}
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func printGolden(name string, seed int64, answers []answer, problems []string) error {
	if seed != defaultSeed {
		return fmt.Errorf("-golden records seed %d only", defaultSeed)
	}
	for _, a := range answers {
		if !a.proven || a.err != "" {
			problems = append(problems, fmt.Sprintf("%s %s unproven", a.Clip, a.Rule))
		}
	}
	var own []string
	for _, p := range problems {
		if !strings.HasPrefix(p, "golden:") {
			own = append(own, p)
		}
	}
	if len(own) > 0 {
		return fmt.Errorf("not recording failing answers: %s", strings.Join(own, "; "))
	}
	out, err := json.Marshal(answers)
	if err != nil {
		return err
	}
	fmt.Printf("%q: %s\n", name, out)
	return nil
}

func walls(ps []*iteration) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall.Seconds()
	}
	return out
}

func fmtWalls(ps []*iteration) string {
	var parts []string
	for _, w := range walls(ps) {
		parts = append(parts, fmt.Sprintf("%.3fs", w))
	}
	return strings.Join(parts, " ")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ---- memory ----------------------------------------------------------------

type memDelta struct{ allocMB, pauseMS, numGC float64 }

type memSnap struct {
	alloc, pauseNs uint64
	numGC          uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.PauseTotalNs, ms.NumGC}
}

func (a memSnap) sub(b memSnap) memDelta {
	return memDelta{
		allocMB: float64(a.alloc-b.alloc) / (1 << 20),
		pauseMS: float64(a.pauseNs-b.pauseNs) / 1e6,
		numGC:   float64(a.numGC - b.numGC),
	}
}

func medianMem(ds []memDelta) memDelta {
	var a, p, n []float64
	for _, d := range ds {
		a, p, n = append(a, d.allocMB), append(p, d.pauseMS), append(n, d.numGC)
	}
	return memDelta{median(a), median(p), median(n)}
}

// heapSampler polls HeapInuse and keeps its peak since the last reset.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				h.mu.Lock()
				h.peak = max(h.peak, ms.HeapInuse)
				h.mu.Unlock()
			}
		}
	}()
	return h
}

func (h *heapSampler) reset() {
	h.mu.Lock()
	h.peak = 0
	h.mu.Unlock()
}

func (h *heapSampler) peakMB() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}

func (h *heapSampler) stop() {
	close(h.done)
	h.wg.Wait()
}
