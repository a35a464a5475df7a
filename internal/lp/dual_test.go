package lp

import (
	"context"
	"math/rand"
	"testing"
)

// leavingScan is leavingRow's test oracle: the dual restore's leaving-row
// choice as a scan of every row.
func (s *simplex) leavingScan() (r int, above bool, viol float64) {
	tol := s.opt.Tol
	r = -1
	worst := 0.0
	for i := 0; i < s.m; i++ {
		bj := s.basis[i]
		if v := s.xB[i] - s.hi[bj]; v > tol {
			if sc := v * v / s.dw[i]; sc > worst {
				worst, r, above, viol = sc, i, true, v
			}
		}
		if v := s.lo[bj] - s.xB[i]; v > tol {
			if sc := v * v / s.dw[i]; sc > worst {
				worst, r, above, viol = sc, i, false, v
			}
		}
	}
	return r, above, viol
}

// checkLeaving installs the leaving-row hook on s: every choice of the dual
// restore must equal leavingScan's on the same state. calls counts them.
func checkLeaving(t *testing.T, s *simplex, calls *int) {
	t.Helper()
	s.testLeaving = func(r int, above bool, viol float64) {
		wr, wa, wv := s.leavingScan()
		if r != wr || above != wa || viol != wv {
			t.Fatalf("leaving row (%d,%v,%g), scan (%d,%v,%g)", r, above, viol, wr, wa, wv)
		}
		*calls++
	}
}

// TestLeavingRowMatchesScan checks every leaving-row choice of the dual
// restore against a scan of every row: on the primary dual simplex (exact
// dual steepest-edge weights, bound flips) over random LPs and transport
// LPs of up to 140 rows, and on warm reoptimizations of the cached engine
// along bound-fixing dives.
func TestLeavingRowMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	primary, warm := 0, 0
	// primaryDual runs dualSolve's set-up and restore with the hook on.
	primaryDual := func(p *Problem) {
		m, n := p.NumRows(), p.NumVars()
		s := &simplex{p: p, opt: Options{}.withDefaults(m, n), m: m, n: n, mutGen: p.mutGen}
		s.buildColumns()
		s.dualBasis()
		s.dualCap = s.opt.MaxIters
		s.dualDSE = true
		checkLeaving(t, s, &primary)
		s.dualRestore()
	}
	for trial := 0; trial < 300; trial++ {
		primaryDual(randomLP(rng))
	}
	primaryDual(pricingBenchLP(40))
	primaryDual(pricingBenchLP(70))
	for _, size := range []int{6, 9, 12, 40} {
		p := assignmentLP(size)
		res := p.Solve(Options{SnapshotBasis: true})
		if res.Status != Optimal || p.engine == nil {
			t.Fatalf("assignment %d: root %v", size, res.Status)
		}
		checkLeaving(t, p.engine, &warm)
		basis := res.Basis
		for step := 0; step < 4*size; step++ {
			j := rng.Intn(p.NumVars())
			v := float64(rng.Intn(2))
			p.SetVarBounds(j, v, v)
			r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
			if r.Status == Optimal && r.Basis != nil {
				basis = r.Basis
			} else {
				p.SetVarBounds(j, 0, 1)
			}
		}
	}
	t.Logf("%d primary and %d warm leaving-row choices checked", primary, warm)
	if primary < 500 || warm < 50 {
		t.Fatalf("coverage: %d primary and %d warm choices, want >= 500 and >= 50", primary, warm)
	}
}

// TestRefreshRefillsLeavingRows: refresh recomputes every basic value, so
// the dual restore must consider every row again afterwards. On an optimal
// engine whose candidate set a leaving-row search has emptied, moving one
// nonbasic column to its other bound and refreshing puts basic values out
// of bounds; the search must find the scan's row.
func TestRefreshRefillsLeavingRows(t *testing.T) {
	p := assignmentLP(6)
	if res := p.Solve(Options{SnapshotBasis: true}); res.Status != Optimal || p.engine == nil {
		t.Fatalf("root: %v", res.Status)
	}
	s := p.engine
	s.viol.fill(s.m)
	if r, _, _ := s.leavingRow(); r != -1 {
		t.Fatalf("optimal basis: leaving row %d", r)
	}
	for j := 0; j < s.n; j++ {
		if s.state[j] != stAtLower || s.hi[j] == s.lo[j] {
			continue
		}
		s.state[j] = stAtUpper
		s.refresh()
		wr, wa, wv := s.leavingScan()
		if wr == -1 {
			s.state[j] = stAtLower
			continue
		}
		if r, above, viol := s.leavingRow(); r != wr || above != wa || viol != wv {
			t.Fatalf("after refresh: leaving row (%d,%v,%g), scan (%d,%v,%g)", r, above, viol, wr, wa, wv)
		}
		return
	}
	t.Fatal("no bound move put a basic value out of bounds")
}

// TestStoppedStatus: a done Options.Ctx ends a solve with Stopped at once on
// every path — the cold primal, the primary dual, the in-place warm
// reoptimization and the snapshot warm start (whose basis factorization is
// the first to see the context) — and Problem.Solve returns it without
// falling through to another path.
func TestStoppedStatus(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 6

	p := assignmentLP(n)
	if st := newSimplex(p, Options{Ctx: done}).solve().Status; st != Stopped {
		t.Errorf("cold primal: %v, want stopped", st)
	}
	if res, _, ok := dualSolve(p, Options{Ctx: done}); !ok || res.Status != Stopped {
		t.Errorf("primary dual: %v (done %v), want stopped", res.Status, ok)
	}

	root := p.Solve(Options{SnapshotBasis: true})
	if root.Status != Optimal || p.engine == nil {
		t.Fatalf("root: %v", root.Status)
	}
	p.SetVarBounds(0, 1, 1)
	if res, ok := p.engine.reSolve(Options{WarmStart: root.Basis, Ctx: done}); !ok || res.Status != Stopped {
		t.Errorf("in-place warm: %v (done %v), want stopped", res.Status, ok)
	}
	q := rebuildLP(n, p)
	if res, ok := warmSolve(q, Options{WarmStart: root.Basis, Ctx: done}); !ok || res.Status != Stopped {
		t.Errorf("snapshot warm: %v (done %v), want stopped", res.Status, ok)
	}

	for name, o := range map[string]Options{
		"cold":          {Ctx: done},
		"dual":          {Ctx: done, Algorithm: AlgorithmDual, Presolve: PresolveOff},
		"snapshot warm": {Ctx: done, WarmStart: root.Basis},
	} {
		if res := rebuildLP(n, p).Solve(o); res.Status != Stopped || res.Iters != 0 {
			t.Errorf("Solve %s: %v after %d iterations, want stopped after 0", name, res.Status, res.Iters)
		}
	}
}
