package lp

import (
	"math"
	"testing"
)

// assignmentLP builds the LP relaxation of an n x n assignment problem:
// binary-relaxed variables x_ij in [0, 1] with deterministic costs, one
// equality row per agent and per task. It is the test stand-in for a
// branch-and-bound node LP: re-solves differ only in variable bounds.
func assignmentLP(n int) *Problem {
	p := NewProblem()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.AddVariable(0, 1, float64((i*7+j*13)%11+1))
		}
	}
	for i := 0; i < n; i++ {
		row := make([]Coef, n)
		for j := 0; j < n; j++ {
			row[j] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(row, EQ, 1)
	}
	for j := 0; j < n; j++ {
		col := make([]Coef, n)
		for i := 0; i < n; i++ {
			col[i] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(col, EQ, 1)
	}
	return p
}

// rebuildLP clones an assignment LP with the bound set of p (same shape,
// fresh Problem), so the snapshot warm path can be exercised without a live
// engine on the target problem.
func rebuildLP(n int, p *Problem) *Problem {
	q := assignmentLP(n)
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		q.SetVarBounds(j, lo, hi)
	}
	return q
}

// TestWarmStartMatchesCold drives a branch-and-bound-like sequence of bound
// fixings through three solvers — cold, warm via the in-place engine, and
// warm via a basis snapshot on a freshly built problem — and requires
// identical statuses and objectives throughout. This is the answer
// preservation contract of the warm-start layer.
func TestWarmStartMatchesCold(t *testing.T) {
	const n = 6
	warm := assignmentLP(n)
	root := warm.Solve(Options{SnapshotBasis: true})
	if root.Status != Optimal {
		t.Fatalf("root status %v", root.Status)
	}
	if root.Basis == nil {
		t.Fatal("root solve produced no basis snapshot")
	}
	if root.Stats.WarmStarted {
		t.Fatal("root solve claims to be warm-started")
	}
	basis := root.Basis

	// Fix variables one at a time, alternating 0/1, accumulating bound
	// changes like a dive in a branch-and-bound tree.
	warmStarts := 0
	for step := 0; step < 2*n; step++ {
		j := (step * 5) % (n * n)
		v := float64(step % 2)
		warm.SetVarBounds(j, v, v)

		wres := warm.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if wres.Stats.WarmStarted {
			warmStarts++
		}

		cold := rebuildLP(n, warm)
		cres := cold.Solve(Options{})
		if cres.Stats.WarmStarted {
			t.Fatalf("step %d: cold solve claims to be warm-started", step)
		}

		snap := rebuildLP(n, warm)
		sres := snap.Solve(Options{WarmStart: basis, SnapshotBasis: true})

		if wres.Status != cres.Status || sres.Status != cres.Status {
			t.Fatalf("step %d: status disagreement: engine=%v snapshot=%v cold=%v",
				step, wres.Status, sres.Status, cres.Status)
		}
		if cres.Status == Optimal {
			if math.Abs(wres.Obj-cres.Obj) > 1e-6 {
				t.Fatalf("step %d: engine warm obj %g, cold %g", step, wres.Obj, cres.Obj)
			}
			if math.Abs(sres.Obj-cres.Obj) > 1e-6 {
				t.Fatalf("step %d: snapshot warm obj %g, cold %g", step, sres.Obj, cres.Obj)
			}
			if wres.Basis != nil {
				basis = wres.Basis
			}
		}
		if cres.Status == Infeasible {
			return // the dive bottomed out; contract held the whole way
		}
	}
	if warmStarts == 0 {
		t.Fatal("no solve took the warm path — the test exercised nothing")
	}
}

// TestWarmStartStaleBasis feeds a snapshot from a differently shaped problem:
// the solve must silently fall back to the cold path and still answer.
func TestWarmStartStaleBasis(t *testing.T) {
	small := assignmentLP(3)
	sres := small.Solve(Options{SnapshotBasis: true})
	if sres.Status != Optimal || sres.Basis == nil {
		t.Fatalf("small solve: %v", sres.Status)
	}
	big := assignmentLP(5)
	bres := big.Solve(Options{WarmStart: sres.Basis})
	if bres.Status != Optimal {
		t.Fatalf("big solve with stale basis: %v", bres.Status)
	}
	if bres.Stats.WarmStarted {
		t.Fatal("stale basis must not count as a warm start")
	}
}

// TestWarmStartEngineInvalidation mutates the problem structurally after a
// snapshot-enabled solve: the cached engine must be discarded (mutGen) and
// the next solve still be correct.
func TestWarmStartEngineInvalidation(t *testing.T) {
	p := assignmentLP(4)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	before := res.Obj

	// Raising one cost must invalidate the engine; a warm solve with the old
	// snapshot must not resurrect the old cost vector.
	p.SetCost(0, p.Cost(0)+100)
	res2 := p.Solve(Options{WarmStart: res.Basis, SnapshotBasis: true})
	if res2.Status != Optimal {
		t.Fatalf("status after cost bump: %v", res2.Status)
	}
	fresh := assignmentLP(4)
	fresh.SetCost(0, fresh.Cost(0)+100)
	want := fresh.Solve(Options{})
	if math.Abs(res2.Obj-want.Obj) > 1e-6 {
		t.Fatalf("after cost bump: obj %g, fresh problem says %g (engine served stale costs?)", res2.Obj, want.Obj)
	}
	_ = before
}

// TestWarmSolveAllocs pins the allocation budget of the hot warm path (the
// in-place engine reoptimization). The budget is a handful of small slices —
// solution vector, basis snapshot, dual workspace — with no O(m^2) churn;
// rebuilding columns or refactorizing would blow well past it.
func TestWarmSolveAllocs(t *testing.T) {
	const n = 6
	p := assignmentLP(n)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal || res.Basis == nil {
		t.Fatalf("root: %v", res.Status)
	}
	basis := res.Basis
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		j := (step * 5) % (n * n)
		p.SetVarBounds(j, 0, 0)
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		p.SetVarBounds(j, 0, 1)
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
		step++
	})
	if allocs > 16 {
		t.Errorf("warm node solve allocates %.1f objects/solve, want <= 16 (column rebuild or refactorize leaking in?)", allocs)
	}
}

// TestColdSolveAllocs pins the allocation budget of the cold two-phase path.
// Column assembly dominates (a few slices per structural column); the pooled
// phase-cost vectors and solution buffer keep per-phase work out of the
// count. A dense-inverse or per-iteration-slice regression multiplies this
// figure and trips the pin.
func TestColdSolveAllocs(t *testing.T) {
	const n = 6
	p := assignmentLP(n)
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		j := (step * 5) % (n * n)
		p.SetVarBounds(j, 0, 0)
		r := p.Solve(Options{})
		p.SetVarBounds(j, 0, 1)
		if r.Status != Optimal && r.Status != Infeasible {
			t.Fatalf("status %v", r.Status)
		}
		step++
	})
	if allocs > 400 {
		t.Errorf("cold solve allocates %.1f objects/solve, want <= 400 (per-iteration slice churn leaking in?)", allocs)
	}
}

// BenchmarkNodeLPWarmStart measures one branch-and-bound node reoptimization:
// flip one variable fixing, warm-solve, restore. Compare with
// BenchmarkNodeLPColdStart for the warm-start speedup on the same sequence.
func BenchmarkNodeLPWarmStart(b *testing.B) {
	const n = 8
	p := assignmentLP(n)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		b.Fatalf("root: %v", res.Status)
	}
	basis := res.Basis
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 5) % (n * n)
		p.SetVarBounds(j, 0, 0)
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		p.SetVarBounds(j, 0, 1)
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
	}
}

// BenchmarkNodeLPColdStart is the cold-solve baseline for the same node
// sequence as BenchmarkNodeLPWarmStart.
func BenchmarkNodeLPColdStart(b *testing.B) {
	const n = 8
	p := assignmentLP(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i * 5) % (n * n)
		p.SetVarBounds(j, 0, 0)
		r := p.Solve(Options{})
		p.SetVarBounds(j, 0, 1)
		if r.Status != Optimal && r.Status != Infeasible {
			b.Fatalf("status %v", r.Status)
		}
	}
}
