package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ProfileRecord is one bench case's sampling profile as dumped to the
// -sample JSONL stream: identification plus the top-N self/cumulative frame
// summary captured by obs.Sampler over the case's window.
type ProfileRecord struct {
	Clip    string            `json:"clip"`
	Rule    string            `json:"rule"`
	Solver  string            `json:"solver"` // "bnb" or "ilp"
	WallMS  float64           `json:"wall_ms"`
	Hz      int               `json:"hz"`
	Samples int64             `json:"samples"`
	Funcs   []BenchFuncSample `json:"funcs,omitempty"`
}

// ProfileWriter appends one JSON record per line to a sink. Safe for
// concurrent use (parallel bench workers finish in arbitrary order); call
// Flush before closing the underlying file. Nil-safe like the other report
// writers, so callers thread it through unconditionally.
type ProfileWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	err error
}

// NewProfileWriter wraps w in a line-buffered JSONL writer.
func NewProfileWriter(w io.Writer) *ProfileWriter {
	return &ProfileWriter{w: bufio.NewWriter(w)}
}

// Write appends one record. The first write error sticks and is returned by
// this and every later call (and by Flush).
func (p *ProfileWriter) Write(rec ProfileRecord) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	data, err := json.Marshal(rec)
	if err != nil {
		p.err = err
		return err
	}
	data = append(data, '\n')
	if _, err := p.w.Write(data); err != nil {
		p.err = err
	}
	return p.err
}

// Flush drains the buffer to the sink. Nil-safe.
func (p *ProfileWriter) Flush() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	p.err = p.w.Flush()
	return p.err
}

// ReadProfiles parses a profile JSONL stream, validating each record
// (cmd/traceview's -profile mode). Blank lines are skipped; any malformed
// line fails with its 1-based line number.
func ReadProfiles(data []byte) ([]ProfileRecord, error) {
	var out []ProfileRecord
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec ProfileRecord
		dec := jsonStrictDecoder(line)
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("profile line %d: %w", i+1, err)
		}
		if rec.Clip == "" || rec.Solver == "" {
			return nil, fmt.Errorf("profile line %d: missing clip/solver", i+1)
		}
		if rec.Hz <= 0 || rec.Samples < 0 {
			return nil, fmt.Errorf("profile line %d: malformed hz/samples (%d, %d)", i+1, rec.Hz, rec.Samples)
		}
		for _, f := range rec.Funcs {
			if f.Fn == "" || f.Self < 0 || f.Cum < f.Self {
				return nil, fmt.Errorf("profile line %d: malformed sample %+v", i+1, f)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}
