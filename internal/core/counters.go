package core

// WorkClass is a set of bench work vectors. Each vector carries only the
// counters that are deterministic for its kind of solve: at Par >= 1 the
// CDC-BnB's route-cache hits depend on worker interleaving, so its
// steiner_solves and steiner_cells move run to run (WorkPar is the
// projection TestParBnBDeterministicAcrossWorkers locks).
type WorkClass uint8

const (
	WorkMILP   WorkClass = 1 << iota // SolveILP
	WorkSerial                       // SolveBnB at Par 0: width-1 rounds on one worker
	WorkPar                          // SolveBnB at Par >= 1
)

// SolveCounter is one row of the solve-counter table.
type SolveCounter struct {
	Name string                  // canonical name, the same in every renderer
	Get  func(*SolveStats) int64 // reads the counter off a solve's stats
	Work WorkClass               // work vectors that carry it (0: informational)
}

// SolveCounters declares each integer counter of SolveStats once, in
// rendering order. Every renderer loops over it by name: the run-wide
// /metrics counters (exp), the bench work vectors (SolveStats.Work), the
// bnb.solve span attrs and optroute -stats. Left out: the time fields,
// MaxDepth (a maximum, not a sum), the scheduling fields, the model
// dimensions and the deprecated LagrangianRounds.
var SolveCounters = []SolveCounter{
	{"nodes", func(s *SolveStats) int64 { return int64(s.Nodes) }, WorkMILP | WorkSerial | WorkPar},
	{"incumbents", func(s *SolveStats) int64 { return int64(s.Incumbents) }, 0},
	{"bans_generated", func(s *SolveStats) int64 { return int64(s.BansGenerated) }, WorkSerial | WorkPar},
	{"steiner_solves", func(s *SolveStats) int64 { return int64(s.SteinerSolves) }, WorkSerial},
	{"steiner_cells", func(s *SolveStats) int64 { return s.SteinerCells }, WorkSerial},
	{"steiner_cache_hits", func(s *SolveStats) int64 { return int64(s.SteinerCacheHits) }, 0},
	{"steiner_inherited", func(s *SolveStats) int64 { return int64(s.SteinerInherited) }, 0},
	{"drc_checks", func(s *SolveStats) int64 { return int64(s.DRCChecks) }, WorkSerial | WorkPar},
	{"dives", func(s *SolveStats) int64 { return int64(s.Dives) }, WorkSerial | WorkPar},
	{"lp_solves", func(s *SolveStats) int64 { return int64(s.LPSolves) }, WorkMILP},
	{"simplex_iters", func(s *SolveStats) int64 { return int64(s.LPIters) }, WorkMILP},
	{"lp_warm_starts", func(s *SolveStats) int64 { return int64(s.LPWarmStarts) }, 0},
	{"ftran_nnz", func(s *SolveStats) int64 { return s.LPFTRANNnz }, WorkMILP},
	{"btran_nnz", func(s *SolveStats) int64 { return s.LPBTRANNnz }, WorkMILP},
}

// EachNonzero calls f for every nonzero table counter of s, in table order.
func (s *SolveStats) EachNonzero(f func(name string, v int64)) {
	for _, c := range SolveCounters {
		if v := c.Get(s); v != 0 {
			f(c.Name, v)
		}
	}
}

// Work returns the solve's deterministic work vector: the table counters of
// its work class, keyed by name. milp selects WorkMILP; a CDC-BnB solve's
// class follows its Par.
func (s *SolveStats) Work(milp bool) map[string]int64 {
	class := WorkSerial
	switch {
	case milp:
		class = WorkMILP
	case s.Par > 0:
		class = WorkPar
	}
	w := map[string]int64{}
	for _, c := range SolveCounters {
		if c.Work&class != 0 {
			w[c.Name] = c.Get(s)
		}
	}
	return w
}
