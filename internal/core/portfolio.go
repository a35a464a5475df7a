package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"optrouter/internal/ilp"
	"optrouter/internal/obs"
	"optrouter/internal/rgraph"
	"optrouter/internal/xchg"
)

// SolvePortfolio races the two exact engines — the conflict-driven
// combinatorial branch-and-bound (SolveBnB, optionally parallel via
// BnBOptions.Par) and the MILP branch-and-bound (SolveILP) — on the same
// instance, connected through a shared lock-free exchange (package xchg):
//
//   - Incumbents flow both ways: whichever engine finds a cheaper routing
//     publishes its cost, and the other engine immediately prunes against it.
//   - Lower bounds flow both ways: the MILP root relaxation and the BnB's
//     best-first queue minimum both raise the shared bound.
//   - The race is decided the moment the shared bound reaches the shared
//     incumbent — a joint optimality proof no single engine may have
//     completed on its own — or when either engine finishes its tree.
//
// The composition stays exact because cross-pruning is one-sided-proof-
// preserving: an engine that completes its tree while pruning against a
// foreign incumbent has proven that no solution cheaper than that incumbent
// exists, which together with the incumbent itself is an optimality
// certificate. The loser is cancelled through its context as soon as the
// winner's proof lands.
func SolvePortfolio(g *rgraph.Graph, opt BnBOptions) (*Solution, error) {
	start := time.Now()
	ex := xchg.New()
	span := opt.Tracer.Start("portfolio.solve",
		obs.A("clip", g.Clip.Name),
		obs.A("nets", len(g.Clip.Nets)),
		obs.A("par", opt.Par))

	base := opt.Ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	type engineResult struct {
		name string
		sol  *Solution
		err  error
	}
	results := make(chan engineResult, 2)

	bnbOpt := opt
	bnbOpt.Ctx = ctx
	bnbOpt.Exchange = ex
	go func() {
		sol, err := SolveBnB(g, bnbOpt)
		results <- engineResult{"bnb", sol, err}
	}()
	// Yield before launching the MILP engine. When GOMAXPROCS saturates, the
	// most recently readied goroutine runs next, so without the yield the MILP
	// engine would monopolize the processor for a full preemption quantum
	// (~10ms) before the BnB — which often proves small instances outright in
	// well under that — ran at all. The yield hands the processor to the BnB
	// first; on an unsaturated scheduler it is a no-op.
	runtime.Gosched()

	ilpOpt := ilp.Options{
		TimeLimit: opt.TimeLimit,
		Ctx:       ctx,
		Tracer:    opt.Tracer,
		Flight:    opt.Flight,
		Exchange:  ex,
	}
	go func() {
		sol, err := SolveILP(g, ilpOpt)
		results <- engineResult{"ilp", sol, err}
	}()

	// Wait for both engines; cancel the loser the moment a proof lands. Both
	// goroutines always run to completion, so no work outlives the call.
	proved := "" // engine whose result first carried a proof
	var bnbRes, ilpRes engineResult
	for i := 0; i < 2; i++ {
		r := <-results
		if r.name == "bnb" {
			bnbRes = r
		} else {
			ilpRes = r
		}
		if proved == "" && r.err == nil && r.sol != nil && r.sol.Proven {
			proved = r.name
			span.Event("proof", obs.A("engine", r.name), obs.A("elapsed_ms", float64(time.Since(start).Microseconds())/1000.0))
			cancel()
		}
	}

	finish := func(sol *Solution, winner string, err error) (*Solution, error) {
		if err != nil {
			span.SetAttr("error", err.Error())
			span.End()
			return nil, err
		}
		sol.Runtime = time.Since(start)
		sol.Stats.Winner = winner
		sol.Stats.IncumbentExchanges = int(ex.Accepted())
		sol.Stats.Elapsed = sol.Runtime
		span.SetAttr("winner", winner)
		span.SetAttr("prover", proved)
		span.SetAttr("feasible", sol.Feasible)
		span.SetAttr("proven", sol.Proven)
		span.SetAttr("cost", sol.Cost)
		span.SetAttr("exchange_accepted", ex.Accepted())
		span.SetAttr("exchange_offers", ex.Offers())
		span.SetAttr("decided", ex.Decided())
		span.End()
		return sol, nil
	}

	inc, haveInc := ex.Incumbent()
	if proved != "" {
		if haveInc {
			// Jointly proven optimum: the exchange incumbent. The engine whose
			// local best equals it holds the routes (every exchange incumbent
			// is some engine's retained local best).
			for _, r := range []engineResult{bnbRes, ilpRes} {
				if r.err == nil && r.sol != nil && r.sol.Feasible && int64(r.sol.Cost) == inc {
					r.sol.Proven = true
					return finish(r.sol, r.name, nil)
				}
			}
			// Unreachable in a correct exchange; fail loudly rather than
			// return a silently unproven result.
			return finish(nil, "", fmt.Errorf("core: portfolio proof at cost %d but no engine holds it", inc))
		}
		// A completed proof with no incumbent anywhere: proven infeasible.
		for _, r := range []engineResult{bnbRes, ilpRes} {
			if r.name == proved {
				return finish(r.sol, r.name, nil)
			}
		}
	}

	// No proof: both engines hit limits, were cancelled from outside, or
	// errored. Return the best feasible result unproven, tolerating a single
	// engine's failure.
	var best *Solution
	winner := ""
	for _, r := range []engineResult{bnbRes, ilpRes} {
		if r.err != nil || r.sol == nil || !r.sol.Feasible {
			continue
		}
		if best == nil || r.sol.Cost < best.Cost {
			best = r.sol
			winner = r.name
		}
	}
	if best != nil {
		best.Proven = false
		return finish(best, winner, nil)
	}
	if bnbRes.err != nil && ilpRes.err != nil {
		return finish(nil, "", fmt.Errorf("core: portfolio: both engines failed: bnb: %v; ilp: %v", bnbRes.err, ilpRes.err))
	}
	for _, r := range []engineResult{bnbRes, ilpRes} {
		if r.err == nil && r.sol != nil {
			return finish(r.sol, r.name, nil)
		}
	}
	return finish(nil, "", fmt.Errorf("core: portfolio: no engine produced a result"))
}
