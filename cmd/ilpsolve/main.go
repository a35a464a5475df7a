// Command ilpsolve is a standalone mixed-integer linear program solver over
// a small LP-like text format (see internal/lpformat), exposing the pure-Go
// MILP engine that replaces CPLEX in this reproduction.
//
// Usage:
//
//	ilpsolve [flags] model.lp     (or reads stdin with no argument)
//
// Flags:
//
//	-time-limit d           stop the branch-and-bound after duration d
//	-stats                  print LP engine statistics after the solve
//
// The LP engine has one configuration: the MILP search presolves once in
// front of the root LP, solves the root with the dual simplex and
// reoptimizes every node warm from its parent's basis.
//
// Exit status: 0 solved, 2 infeasible, 1 error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"optrouter/internal/ilp"
	"optrouter/internal/lpformat"
)

func main() {
	timeLimit := flag.Duration("time-limit", 0, "stop the search after this wall time (0 = none)")
	stats := flag.Bool("stats", false, "print LP engine statistics after the solve")
	flag.Parse()

	var r io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	model, names, err := lpformat.Parse(r)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res := model.Solve(ilp.Options{TimeLimit: *timeLimit})
	fmt.Printf("status: %s (%d nodes, %d LP iterations, %v)\n",
		res.Status, res.Nodes, res.LPIters, time.Since(start).Round(time.Millisecond))
	if *stats {
		st := res.Stats
		fmt.Printf("lp: %d solves, %d warm starts, %d refactorizations\n",
			st.LPSolves, st.LPWarmStarts, st.LPRefactors)
		fmt.Printf("pricing: %d candidate hits, %d reference resets, %d dual bound flips\n",
			st.LPCandidateHits, st.LPRefResets, st.LPDualBoundFlips)
		fmt.Printf("presolve: %d rows and %d cols removed\n",
			st.PresolveRows, st.PresolveCols)
		fmt.Printf("refactor: %d eta_len, %d fill, %d pivot_quality, %d update_rejected\n",
			st.LPRefactorEtaLen, st.LPRefactorFill,
			st.LPRefactorPivotQuality, st.LPRefactorUpdateRejected)
	}
	if res.Status == ilp.Optimal || res.Status == ilp.Feasible {
		fmt.Printf("objective: %g\n", res.Obj)
		var sorted []string
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			fmt.Printf("  %s = %g\n", n, res.X[names[n]])
		}
	}
	if res.Status == ilp.Infeasible {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ilpsolve: %v\n", err)
	os.Exit(1)
}
