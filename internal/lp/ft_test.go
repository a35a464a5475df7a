package lp

import (
	"math"
	"testing"
)

// ft_test.go exercises the Forrest-Tomlin update layer's failure ladder and
// pins its costs: a rejected update must fall back to refactorization, a
// failed (singular) refactorization must abandon the warm path for the cold
// solve with the answer unchanged, and the primary dual algorithm must stay
// within the cold allocation budget. Update-vs-fresh-factorization agreement
// is covered by TestFTUpdateMatchesRefactorize, and answer agreement with the
// oracle across random models by TestPricingPresolveDifferential.

// TestSingularBasisRecovery walks the whole recovery ladder deterministically
// via the luFactor test hooks: every update rejected AND the next
// refactorization reporting the basis singular forces the warm in-place
// reoptimization to give up, and Solve must transparently produce the cold
// answer. With only the rejection hook set, the warm path must survive by
// refactorizing on every exchange and report the rejections in Stats.
func TestSingularBasisRecovery(t *testing.T) {
	const n = 6
	p := assignmentLP(n)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("root: %v", res.Status)
	}
	if p.engine == nil || p.engine.lu == nil {
		t.Fatal("no cached sparse engine after snapshot solve")
	}

	// Reference answer for the mutated problem, on an untouched clone.
	q := assignmentLP(n)
	q.SetVarBounds(0, 0, 0)
	ref := q.Solve(Options{})
	if ref.Status != Optimal {
		t.Fatalf("reference: %v", ref.Status)
	}

	// Ladder rung 1+2: update rejected -> refactorize -> "singular" ->
	// warm path abandoned -> cold solve. Same answer, no error surfaced.
	p.engine.lu.testRejectUpdates = true
	p.engine.lu.testFailFactorize = true
	p.SetVarBounds(0, 0, 0)
	got := p.Solve(Options{WarmStart: res.Basis, SnapshotBasis: true})
	if got.Status != Optimal {
		t.Fatalf("recovery solve: %v", got.Status)
	}
	if math.Abs(got.Obj-ref.Obj) > 1e-9 {
		t.Fatalf("recovery obj %g, reference %g", got.Obj, ref.Obj)
	}
	if got.Stats.WarmStarted {
		t.Fatal("solve reports a warm start after the warm path was abandoned")
	}

	// Ladder rung 1 alone: rejections with healthy refactorization. The warm
	// path survives, each exchange refactorizes, and the trigger is counted.
	if p.engine == nil || p.engine.lu == nil {
		t.Fatal("cold recovery solve did not re-cache an engine")
	}
	p.engine.lu.testRejectUpdates = true
	p.SetVarBounds(0, 0, 1)
	got = p.Solve(Options{WarmStart: got.Basis, SnapshotBasis: true})
	if got.Status != Optimal || math.Abs(got.Obj-res.Obj) > 1e-9 {
		t.Fatalf("rejected-update solve: %v obj %g, want optimal %g",
			got.Status, got.Obj, res.Obj)
	}
	if got.Stats.Pivots > 0 && got.Stats.RefactorUpdateRejected < 1 {
		t.Fatalf("%d pivots with every update rejected, but RefactorUpdateRejected=%d",
			got.Stats.Pivots, got.Stats.RefactorUpdateRejected)
	}
	p.engine.lu.testRejectUpdates = false
}

// TestDualSolveAllocs pins the allocation budget of the primary dual
// algorithm's cold path to the same figure as TestColdSolveAllocs: the
// all-slack dual phase-1, the DSE weight vectors and the artificial-bound
// bookkeeping must all come from pooled storage after warm-up.
func TestDualSolveAllocs(t *testing.T) {
	const n = 6
	p := assignmentLP(n)
	step := 0
	allocs := testing.AllocsPerRun(64, func() {
		j := (step * 5) % (n * n)
		p.SetVarBounds(j, 0, 0)
		r := p.Solve(Options{Presolve: PresolveOff, Algorithm: AlgorithmDual})
		p.SetVarBounds(j, 0, 1)
		if r.Status != Optimal && r.Status != Infeasible {
			t.Fatalf("status %v", r.Status)
		}
		step++
	})
	if allocs > 400 {
		t.Errorf("dual cold solve allocates %.1f objects/solve, want <= 400", allocs)
	}
}

// BenchmarkBasisUpdate measures the branch-and-bound node reoptimization
// loop, where every exchange is a Forrest-Tomlin update and FTRAN/BTRAN
// stay near factorization density across the refactorization interval.
func BenchmarkBasisUpdate(b *testing.B) {
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

// BenchmarkDualPhase1 measures the cold solve under each primary algorithm
// on the same model: the dual variant starts from the all-slack basis with
// exact steepest-edge weights (no primal phase 1), the primal variant pays
// the artificial-based phase 1.
func BenchmarkDualPhase1(b *testing.B) {
	for _, bc := range []struct {
		name string
		alg  Algorithm
	}{{"dual", AlgorithmDual}, {"primal", AlgorithmPrimal}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 8
			p := assignmentLP(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := (i * 5) % (n * n)
				p.SetVarBounds(j, 0, 0)
				r := p.Solve(Options{Presolve: PresolveOff, Algorithm: bc.alg})
				p.SetVarBounds(j, 0, 1)
				if r.Status != Optimal && r.Status != Infeasible {
					b.Fatalf("status %v", r.Status)
				}
			}
		})
	}
}
