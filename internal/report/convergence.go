package report

import "optrouter/internal/core"

// ConvergenceRecord is one solve's convergence trace as dumped to the
// -converge JSONL stream: identification, outcome and the raw bound/incumbent
// samples collected by the solver (core.SolveStats.BoundTrace).
type ConvergenceRecord struct {
	Clip        string             `json:"clip"`
	Rule        string             `json:"rule"`
	Solver      string             `json:"solver"` // "bnb" or "ilp"
	Termination string             `json:"termination"`
	Feasible    bool               `json:"feasible"`
	Cost        int                `json:"cost"`
	Nodes       int                `json:"nodes"`
	MaxDepth    int                `json:"max_depth"`
	WallMS      float64            `json:"wall_ms"`
	Trace       []core.BoundSample `json:"trace"`
}

// NewConvergenceRecord assembles the record of one finished solve from its
// outcome and telemetry.
func NewConvergenceRecord(clip, rule, solver string, feasible bool, cost int, st core.SolveStats) ConvergenceRecord {
	return ConvergenceRecord{
		Clip: clip, Rule: rule, Solver: solver,
		Termination: st.Termination,
		Feasible:    feasible, Cost: cost,
		Nodes: st.Nodes, MaxDepth: st.MaxDepth,
		WallMS: float64(st.Elapsed.Microseconds()) / 1000,
		Trace:  st.BoundTrace,
	}
}
