package lp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// pricing_test.go covers the engine's configuration matrix against the
// oracle (oracle_test.go): a differential fuzz over presolve × algorithm,
// cold and along warm-started bound-change dives (with a JSON reproducer
// dump on any mismatch), a bound-flipping dual restore check, a steady-state
// allocation pin for the incremental pricing path, and benchmarks for
// pricing, the bound-flipping dual ratio test and the presolve pass itself.

// lpRepro is the JSON shape of a dumped fuzz reproducer: the full problem
// (with the bounds of the failing solve) plus the configuration that
// disagreed with the oracle. Bounds are strings so infinities survive
// encoding/json.
type lpRepro struct {
	Presolve  string     `json:"presolve"`
	Algorithm string     `json:"algorithm,omitempty"`
	Detail    string     `json:"detail"`
	Vars      []reproVar `json:"vars"`
	Rows      []reproRow `json:"rows"`
}

type reproVar struct {
	Lo   string  `json:"lo"`
	Hi   string  `json:"hi"`
	Cost float64 `json:"cost"`
}

type reproRow struct {
	Coeffs []Coef  `json:"coeffs"`
	Sense  string  `json:"sense"`
	RHS    float64 `json:"rhs"`
}

func ffield(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dumpReproducer writes the failing problem + config as JSON to a temp file
// and logs its path, so a fuzz failure is replayable without re-deriving the
// RNG state.
func dumpReproducer(t *testing.T, p *Problem, o Options, detail string) {
	t.Helper()
	repro := lpRepro{Presolve: o.Presolve.String(), Algorithm: o.Algorithm.String(), Detail: detail}
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		repro.Vars = append(repro.Vars, reproVar{Lo: ffield(lo), Hi: ffield(hi), Cost: p.Cost(j)})
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		repro.Rows = append(repro.Rows, reproRow{Coeffs: coeffs, Sense: sense.String(), RHS: rhs})
	}
	data, err := json.MarshalIndent(&repro, "", " ")
	if err != nil {
		t.Logf("reproducer marshal failed: %v", err)
		return
	}
	f, err := os.CreateTemp("", "lp-pricing-repro-*.json")
	if err != nil {
		t.Logf("reproducer dump failed: %v", err)
		return
	}
	f.Write(data)
	f.Close()
	t.Logf("reproducer written to %s", f.Name())
}

// feasViolation reports the first primal feasibility violation of x, or ""
// — the non-fatal sibling of checkFeasible so the matrix fuzz can dump a
// reproducer before failing.
func feasViolation(p *Problem, x []float64) string {
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return fmt.Sprintf("x[%d]=%g outside [%g,%g]", j, x[j], lo, hi)
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		ax := 0.0
		for _, c := range coeffs {
			ax += c.Val * x[c.Var]
		}
		switch sense {
		case LE:
			if ax > rhs+tol {
				return fmt.Sprintf("row %d: %g > %g", i, ax, rhs)
			}
		case GE:
			if ax < rhs-tol {
				return fmt.Sprintf("row %d: %g < %g", i, ax, rhs)
			}
		case EQ:
			if math.Abs(ax-rhs) > tol {
				return fmt.Sprintf("row %d: %g != %g", i, ax, rhs)
			}
		}
	}
	return ""
}

// TestPricingPresolveDifferential fuzzes random LPs through the presolve
// mode × algorithm (primal/dual) matrix and requires agreement with the
// oracle on status, objective and primal feasibility — for the cold solve,
// and at every node of a short warm-started dive that branches on the
// engine's own solution the way the MILP search does. Any mismatch dumps a
// standalone JSON reproducer. Presolve and the algorithm only change the
// path to the optimum, never the optimum.
func TestPricingPresolveDifferential(t *testing.T) {
	var configs []Options
	for _, ps := range []PresolveMode{PresolveAuto, PresolveOff} {
		for _, alg := range []Algorithm{AlgorithmPrimal, AlgorithmDual} {
			configs = append(configs, Options{Presolve: ps, Algorithm: alg})
		}
	}
	rng := rand.New(rand.NewSource(20150608))
	trials := 250
	if testing.Short() {
		trials = 60
	}
	counts := map[Status]int{}
	warm := 0
	for trial := 0; trial < trials; trial++ {
		p := randomLP(rng)
		ref := oracleSolve(p)
		counts[ref.Status]++
		for _, cfg := range configs {
			check := func(q *Problem, r Result, ref oracleResult, where string) {
				fail := func(format string, args ...interface{}) {
					detail := where + ": " + fmt.Sprintf(format, args...)
					dumpReproducer(t, q, cfg, detail)
					t.Fatalf("trial %d [%v/%v] %s", trial, cfg.Presolve, cfg.Algorithm, detail)
				}
				if r.Status != ref.Status {
					fail("status %v, oracle %v", r.Status, ref.Status)
				}
				if r.Status != Optimal {
					return
				}
				if math.Abs(r.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
					fail("obj %.12g, oracle %.12g", r.Obj, ref.Obj)
				}
				if v := feasViolation(q, r.X); v != "" {
					fail("infeasible primal: %s", v)
				}
			}
			check(p, cloneProblem(p).Solve(cfg), ref, "cold")

			// Warm dive: snapshot root, then alternate down/up branches on
			// the engine's current value of one variable per node.
			q := cloneProblem(p)
			o := cfg
			o.SnapshotBasis = true
			r := q.Solve(o)
			check(q, r, ref, "dive root")
			for step := 0; step < 4 && r.Status == Optimal && r.Basis != nil; step++ {
				j := (trial + 3*step) % q.NumVars()
				lo, hi := q.VarBounds(j)
				if v := r.X[j]; step%2 == 0 {
					hi = math.Max(lo, math.Ceil(v)-1)
				} else {
					lo = math.Min(hi, math.Floor(v)+1)
				}
				q.SetVarBounds(j, lo, hi)
				o.WarmStart = r.Basis
				r = q.Solve(o)
				if r.Stats.WarmStarted {
					warm++
				}
				check(q, r, oracleSolve(q), fmt.Sprintf("dive node %d", step))
			}
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if counts[st] == 0 {
			t.Errorf("fuzz corpus never produced status %v — generator drifted", st)
		}
	}
	if warm == 0 {
		t.Error("no dive node took the warm path")
	}
}

// TestPricingWarmDive tightens sliding blocks of boxed arcs on a
// transportation LP and reoptimizes warm from the previous basis — the
// regime where the bound-flipping dual ratio test steps through several
// breakpoints per pivot — requiring the oracle's status and objective at
// every node, at least one long-step flip across the dive, and both
// optimal and (warm-certified) infeasible nodes.
func TestPricingWarmDive(t *testing.T) {
	p := pricingBenchLP(8)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	const block = 6
	flips := 0
	seen := map[Status]int{}
	for step := 0; step < 24; step++ {
		at := (step * 7) % (p.NumVars() - block)
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 1, 1)
		}
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		ref := oracleSolve(p)
		if r.Status != ref.Status {
			t.Fatalf("node %d: status engine=%v oracle=%v", step, r.Status, ref.Status)
		}
		if r.Status == Optimal {
			if math.Abs(r.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
				t.Fatalf("node %d: obj engine=%g oracle=%g", step, r.Obj, ref.Obj)
			}
			if r.Basis != nil {
				basis = r.Basis
			}
		}
		flips += r.Stats.DualBoundFlips
		seen[r.Status]++
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 0, 2)
		}
	}
	if flips == 0 {
		t.Error("dive never exercised the bound-flipping ratio test")
	}
	if seen[Optimal] == 0 || seen[Infeasible] == 0 {
		t.Errorf("dive statuses %v, want both optimal and infeasible nodes", seen)
	}
}

// TestPricingSteadyStateAllocs pins the warm-reoptimization allocation
// count: the incremental pricing update, candidate list and devex weight
// recurrences must all run on pooled buffers, so steady-state node solves
// stay allocation-free per iteration.
func TestPricingSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	p := assignmentLP(6)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	step := 0
	avg := testing.AllocsPerRun(50, func() {
		j := (step * 7) % p.NumVars()
		v := float64(step % 2)
		p.SetVarBounds(j, v, v)
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
		step++
	})
	// The fixed per-solve overhead (basis snapshot, result assembly) is ~a
	// dozen allocations; anything scaling with iterations would land far
	// above this pin.
	if avg > 20 {
		t.Errorf("%.1f allocs per warm solve, want <= 20", avg)
	}
}

// pricingBenchLP builds a dense-ish transportation-style LP big enough that
// pricing dominates: n supply rows, n demand rows, n*n arcs with boxed
// capacities.
func pricingBenchLP(n int) *Problem {
	p := NewProblem()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.AddVariable(0, 2, float64(1+rng.Intn(20)))
		}
	}
	for i := 0; i < n; i++ {
		coeffs := make([]Coef, n)
		for j := 0; j < n; j++ {
			coeffs[j] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(coeffs, LE, float64(n)/2)
	}
	for j := 0; j < n; j++ {
		coeffs := make([]Coef, n)
		for i := 0; i < n; i++ {
			coeffs[i] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(coeffs, GE, 1)
	}
	return p
}

// BenchmarkPricing times a cold primal solve of an LP big enough that
// pricing dominates (presolve off, so it isolates the pricing loop), and
// reports the iteration count.
func BenchmarkPricing(b *testing.B) {
	iters := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pricingBenchLP(16)
		r := p.Solve(Options{Presolve: PresolveOff})
		if r.Status != Optimal {
			b.Fatalf("status %v", r.Status)
		}
		iters = r.Iters
	}
	b.ReportMetric(float64(iters), "simplex-iters")
}

// BenchmarkDualBoundFlip times the warm-started dual restore on a heavily
// boxed LP — the path where the bound-flipping ratio test pays — and
// reports how many flips the long-step test performed per reoptimization.
func BenchmarkDualBoundFlip(b *testing.B) {
	p := pricingBenchLP(12)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		b.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	flips := 0
	const block = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Tighten a sliding block of boxed arcs at once: the warm restore
		// then crosses many dual ratio-test breakpoints in one pass, which
		// is exactly the regime BFRT accelerates.
		at := (i * 7) % (p.NumVars() - block)
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 1, 1)
		}
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
		flips += r.Stats.DualBoundFlips
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 0, 2)
		}
	}
	b.ReportMetric(float64(flips)/float64(b.N), "flips/op")
}

// BenchmarkPresolve times a full presolve pass (reduction + stack build) on
// a problem with substantial reducible structure, reporting the reductions
// found.
func BenchmarkPresolve(b *testing.B) {
	p := pricingBenchLP(12)
	// Singleton rows, a fixed column and duplicate (redundant) rows give the
	// pass real work beyond scanning.
	for j := 0; j < 24; j++ {
		p.AddConstraint([]Coef{{Var: j, Val: 1}}, LE, 1)
	}
	p.SetVarBounds(5, 1, 1)
	rows, cols := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := PresolveProblem(p, PresolveOptions{})
		if ps == nil || ps.Infeasible {
			b.Fatal("presolve found no reduction")
		}
		rows, cols = ps.RowsRemoved, ps.ColsRemoved
	}
	b.ReportMetric(float64(rows), "rows-removed")
	b.ReportMetric(float64(cols), "cols-removed")
}
