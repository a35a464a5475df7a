package report

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"optrouter/internal/core"
)

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

// ConvergenceWriter appends one JSON record per line to a sink. It is safe
// for concurrent use (sweep workers finish solves in arbitrary order) and
// buffers writes; call Flush before closing the underlying file.
type ConvergenceWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewConvergenceWriter wraps w in a line-buffered JSONL writer.
func NewConvergenceWriter(w io.Writer) *ConvergenceWriter {
	return &ConvergenceWriter{w: bufio.NewWriter(w)}
}

// Write appends one record. The first write error sticks and is returned by
// this and every later call (and by Flush).
func (c *ConvergenceWriter) Write(rec ConvergenceRecord) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		c.err = err
		return err
	}
	data = append(data, '\n')
	if _, err := c.w.Write(data); err != nil {
		c.err = err
	}
	return c.err
}

// Flush drains the buffer to the sink. Nil-safe.
func (c *ConvergenceWriter) Flush() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.err = c.w.Flush()
	return c.err
}
