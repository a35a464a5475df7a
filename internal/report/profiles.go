package report

import (
	"bytes"
	"fmt"
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
