package lp

import (
	"math"
	"math/rand"
	"testing"
)

// presolve_test.go unit-tests the structural presolve: each reduction kind
// in isolation, infeasibility detection and the Postsolve primal roundtrip.

// solvePresolved runs the MILP root's sequence on an LP: PresolveProblem,
// then Reduced.Solve, then Postsolve, with the objective evaluated on the
// original problem. reduced reports whether presolve removed anything.
// Infeasibility and unboundedness transfer unchanged, because every
// reduction keeps the feasible set of the remaining columns.
func solvePresolved(p *Problem, opt Options) (res Result, reduced bool) {
	ps := PresolveProblem(p, nil)
	if ps == nil {
		return p.Solve(opt), false
	}
	reduced = ps.RowsRemoved > 0 || ps.ColsRemoved > 0
	if ps.Infeasible {
		return Result{Status: Infeasible}, reduced
	}
	res = ps.Reduced.Solve(opt)
	if res.Status != Optimal {
		res.X = nil
		return res, reduced
	}
	res.X = ps.Postsolve(res.X)
	res.Obj = 0
	for j, v := range res.X {
		res.Obj += p.Cost(j) * v
	}
	return res, reduced
}

// TestPresolveSingletonRow: a singleton row must fold into a variable bound
// and vanish from the reduced problem, with the solve answer unchanged.
func TestPresolveSingletonRow(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 10, -1) // max x via min -x
	p.AddVariable(0, 10, -1)
	p.AddConstraint([]Coef{{Var: 0, Val: 2}}, LE, 6) // x0 <= 3, singleton
	p.AddConstraint([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, LE, 7)
	ps := PresolveProblem(p, nil)
	if ps == nil {
		t.Fatal("presolve found no reduction")
	}
	if ps.RowsRemoved < 1 {
		t.Fatalf("RowsRemoved = %d, want >= 1", ps.RowsRemoved)
	}
	res, _ := solvePresolved(p, Options{})
	if res.Status != Optimal || math.Abs(res.Obj-(-7)) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal -7", res.Status, res.Obj)
	}
	if math.Abs(res.X[0]-3) > 1e-9 {
		t.Fatalf("x0 = %g, want 3 (singleton bound active)", res.X[0])
	}
}

// TestPresolveFixedColumn: a fixed column folds into the right-hand sides
// and the objective offset.
func TestPresolveFixedColumn(t *testing.T) {
	p := NewProblem()
	p.AddVariable(4, 4, 3) // fixed: contributes 12 to the objective
	p.AddVariable(0, 10, 1)
	p.AddConstraint([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, GE, 9) // => x1 >= 5
	ps := PresolveProblem(p, nil)
	if ps == nil || ps.ColsRemoved < 1 {
		t.Fatalf("presolve did not remove the fixed column: %+v", ps)
	}
	// 12 from the fixed column alone: the singleton row left behind becomes
	// the bound x1 >= 5, and x1 stays in the reduced problem.
	if math.Abs(ps.ObjOffset-12) > 1e-9 {
		t.Fatalf("ObjOffset = %g, want 12", ps.ObjOffset)
	}
	res, _ := solvePresolved(p, Options{})
	if res.Status != Optimal || math.Abs(res.Obj-17) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal 17", res.Status, res.Obj)
	}
	if math.Abs(res.X[0]-4) > 1e-9 || math.Abs(res.X[1]-5) > 1e-9 {
		t.Fatalf("x = %v, want [4 5]", res.X)
	}
}

// TestPresolveForcedRow: a row whose activity bounds meet its rhs exactly
// fixes every variable it touches at the forcing extreme.
func TestPresolveForcedRow(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 2, 1)
	p.AddVariable(0, 3, 1)
	p.AddVariable(0, 5, -1)
	// x0 + x1 >= 5 forces x0=2, x1=3 (max activity equals rhs).
	p.AddConstraint([]Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, GE, 5)
	p.AddConstraint([]Coef{{Var: 2, Val: 1}, {Var: 0, Val: 1}}, LE, 6)
	ps := PresolveProblem(p, nil)
	if ps == nil || ps.ColsRemoved < 2 {
		t.Fatalf("forced row not detected: %+v", ps)
	}
	res, _ := solvePresolved(p, Options{})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	want := []float64{2, 3, 4} // x2 <= 6 - x0 = 4, cost -1 drives it there
	for j, w := range want {
		if math.Abs(res.X[j]-w) > 1e-9 {
			t.Fatalf("x[%d] = %g, want %g", j, res.X[j], w)
		}
	}
}

// TestPresolveInfeasible: contradictory singleton rows must be caught by
// presolve alone, and Solve must report Infeasible on the model as stated.
func TestPresolveInfeasible(t *testing.T) {
	p := NewProblem()
	p.AddVariable(0, 10, 1)
	p.AddConstraint([]Coef{{Var: 0, Val: 1}}, GE, 5)
	p.AddConstraint([]Coef{{Var: 0, Val: 1}}, LE, 3)
	ps := PresolveProblem(p, nil)
	if ps == nil || !ps.Infeasible {
		t.Fatalf("presolve missed the contradiction: %+v", ps)
	}
	if res := p.Solve(Options{}); res.Status != Infeasible {
		t.Fatalf("status %v, want Infeasible", res.Status)
	}
}

// TestPresolvePostsolveRoundtrip fuzzes: the presolved sequence and a direct
// solve must agree on status and objective, and the postsolved primal must
// be feasible for the original problem.
func TestPresolvePostsolveRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	applied := 0
	for trial := 0; trial < 300; trial++ {
		p := randomLP(rng)
		on, reduced := solvePresolved(cloneProblem(p), Options{})
		off := cloneProblem(p).Solve(Options{})
		if on.Status != off.Status {
			t.Fatalf("trial %d: status presolve=%v direct=%v", trial, on.Status, off.Status)
		}
		if reduced {
			applied++
		}
		if on.Status != Optimal {
			continue
		}
		if math.Abs(on.Obj-off.Obj) > 1e-6*(1+math.Abs(off.Obj)) {
			t.Fatalf("trial %d: obj presolve=%.12g direct=%.12g", trial, on.Obj, off.Obj)
		}
		checkFeasible(t, trial, p, on.X)
	}
	if applied < 30 {
		t.Errorf("presolve reduced only %d/300 instances — corpus too clean", applied)
	}
}
