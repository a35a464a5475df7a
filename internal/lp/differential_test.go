package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP generates a random bounded LP. Most instances are feasible and
// bounded; the generator deliberately mixes in degenerate rows (duplicated
// constraints), equality-heavy systems, free variables, and occasional
// contradictory or unbounded constructions so every Status is exercised.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 2 + rng.Intn(10)
	for j := 0; j < n; j++ {
		lo, hi := 0.0, float64(1+rng.Intn(10))
		switch rng.Intn(10) {
		case 0:
			lo = -Inf // one-sided above
		case 1:
			lo, hi = -hi, Inf
		case 2:
			lo, hi = -Inf, Inf // free
		case 3:
			v := float64(rng.Intn(5))
			lo, hi = v, v // fixed
		}
		p.AddVariable(lo, hi, float64(rng.Intn(21)-10))
	}
	m := 1 + rng.Intn(12)
	for i := 0; i < m; i++ {
		var coeffs []Coef
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				coeffs = append(coeffs, Coef{Var: j, Val: float64(rng.Intn(9) - 4)})
			}
		}
		if len(coeffs) == 0 {
			coeffs = append(coeffs, Coef{Var: rng.Intn(n), Val: 1})
		}
		sense := Sense(rng.Intn(3))
		rhs := float64(rng.Intn(25) - 8)
		p.AddConstraint(coeffs, sense, rhs)
		if rng.Intn(6) == 0 {
			// Duplicate the row (degeneracy) or contradict it (infeasibility).
			if rng.Intn(3) == 0 && sense == LE {
				p.AddConstraint(coeffs, GE, rhs+1+float64(rng.Intn(4)))
			} else {
				p.AddConstraint(coeffs, sense, rhs)
			}
		}
	}
	return p
}

// cloneProblem rebuilds an identical Problem (fresh caches) so two solves
// never share a cached simplex.
func cloneProblem(p *Problem) *Problem {
	q := NewProblem()
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		q.AddVariable(lo, hi, p.Cost(j))
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		q.AddConstraint(coeffs, sense, rhs)
	}
	return q
}

// TestEngineDifferential fuzzes random bounded LPs through the engine's
// default configuration and the independent dense oracle (oracle_test.go),
// requiring agreement on status and (when optimal) objective within
// tolerance, and a feasible engine primal. This is the answer-preservation
// gate for the sparse factorization, the Forrest-Tomlin updates and devex
// pricing together.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	counts := map[Status]int{}
	for trial := 0; trial < 400; trial++ {
		p := randomLP(rng)
		got := p.Solve(Options{})
		ref := oracleSolve(p)
		if got.Status != ref.Status {
			t.Fatalf("trial %d: status engine=%v oracle=%v", trial, got.Status, ref.Status)
		}
		counts[got.Status]++
		if got.Status == Optimal {
			if math.Abs(got.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
				t.Fatalf("trial %d: obj engine=%.12g oracle=%.12g", trial, got.Obj, ref.Obj)
			}
			// The engine's solution must itself be feasible — agreement on the
			// objective alone could mask a corrupted primal vector.
			checkFeasible(t, trial, p, got.X)
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if counts[st] == 0 {
			t.Errorf("fuzz corpus never produced status %v — generator drifted", st)
		}
	}
}

func checkFeasible(t *testing.T, trial int, p *Problem, x []float64) {
	t.Helper()
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			t.Fatalf("trial %d: x[%d]=%g outside [%g,%g]", trial, j, x[j], lo, hi)
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
				t.Fatalf("trial %d: row %d: %g > %g", trial, i, ax, rhs)
			}
		case GE:
			if ax < rhs-tol {
				t.Fatalf("trial %d: row %d: %g < %g", trial, i, ax, rhs)
			}
		case EQ:
			if math.Abs(ax-rhs) > tol {
				t.Fatalf("trial %d: row %d: %g != %g", trial, i, ax, rhs)
			}
		}
	}
}

// assignmentDive runs a branch-and-bound-style dive on p — fix one variable
// per step, alternating 0 and 1, warm-starting every solve from the previous
// optimal basis (cached-engine reoptimization and snapshot restores
// included) — and checks each node against the oracle on the same bounds.
// It stops at the first non-optimal node and returns the nodes solved.
func assignmentDive(t *testing.T, p *Problem, opt Options, steps int) []Result {
	t.Helper()
	opt.SnapshotBasis = true
	res := p.Solve(opt)
	if res.Status != Optimal {
		t.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	var nodes []Result
	for step := 0; step < steps; step++ {
		j := (step * 7) % p.NumVars()
		v := float64(step % 2)
		p.SetVarBounds(j, v, v)
		opt.WarmStart = basis
		r := p.Solve(opt)
		ref := oracleSolve(p)
		if r.Status != ref.Status {
			t.Fatalf("node %d: status engine=%v oracle=%v", step, r.Status, ref.Status)
		}
		if r.Status == Optimal && math.Abs(r.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
			t.Fatalf("node %d: obj engine=%g oracle=%g", step, r.Obj, ref.Obj)
		}
		nodes = append(nodes, r)
		if r.Status != Optimal {
			break
		}
		if r.Basis != nil {
			basis = r.Basis
		}
	}
	return nodes
}

// TestEngineDifferentialWarm runs a branch-and-bound-style dive on the
// assignment LP and requires the oracle's status and objective at every
// node. This covers the dual-simplex restore path, which the cold fuzz
// above never reaches.
func TestEngineDifferentialWarm(t *testing.T) {
	const n = 6
	nodes := assignmentDive(t, assignmentLP(n), Options{}, 3*n)
	warm := 0
	for _, r := range nodes {
		if r.Stats.WarmStarted {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no node solve took the warm path")
	}
}
